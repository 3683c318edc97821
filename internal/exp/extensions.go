package exp

import (
	"fmt"

	"starnuma/internal/core"
	"starnuma/internal/migrate"
	"starnuma/internal/pool"
	"starnuma/internal/workload"
)

// ExtReplication quantifies §V-F's replication-vs-pooling discussion,
// which the paper argues qualitatively: replicating read-only vagabond
// pages can substitute for the pool, but read-write sharing makes
// software replica coherence prohibitive, and the two techniques
// compose. We run an idealized best-case replication (whole-run
// knowledge selects hot, widely-shared, read-mostly pages).
func (r *Runner) ExtReplication() (*Table, error) {
	specs, err := r.opts.specs()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "extrep",
		Title:   "Extension (§V-F): page replication vs memory pooling",
		Columns: []string{"workload", "baseline+repl", "naive repl (r/w too)", "starnuma", "starnuma+repl", "repl pages", "write stalls"},
		Notes:   "§V-F (qualitative): replication suits read-only sharing (TC) but software coherence on read-write pages (BFS, Masstree) is prohibitive; replication and pooling are complementary",
	}
	cfgR := r.opts.Sim
	cfgR.Policy = core.PolicyPerfectBaseline
	cfgR.Replication = migrate.DefaultReplicationConfig()
	cfgR.Replication.Enable = true
	// Naive replication ignores the read-only filter — the paper's
	// "prohibitive overheads" case: every store to a replicated page
	// pays the software coherence penalty.
	cfgN := cfgR
	cfgN.Replication.MaxWriteFrac = 1.0
	cfgB := r.opts.Sim
	cfgB.Replication = cfgR.Replication
	replV := variant{"baseline-repl", core.BaselineSystem(), cfgR}
	naiveV := variant{"baseline-repl-naive", core.BaselineSystem(), cfgN}
	bothV := pooled("starnuma-repl", core.StarNUMASystem(), cfgB)
	g, err := r.grid(specs, r.baselineVariant(), r.starnumaVariant(), replV, naiveV, bothV)
	if err != nil {
		return nil, err
	}
	t.addColumns(gmeanLabels(specs),
		speedupCol(g[2], g[0]), speedupCol(g[3], g[0]), speedupCol(g[1], g[0]), speedupCol(g[4], g[0]),
		perRow(g[3], func(res *core.Result) string { return fmt.Sprint(res.ReplicatedPages) }),
		perRow(g[3], func(res *core.Result) string { return fmt.Sprint(res.ReplicaWriteStalls) }))
	return t, nil
}

// Ext32Sockets evaluates §III-B's scaling argument across the paper's
// target range (8-32 sockets): at 8 sockets NUMA pressure is milder so
// the pool helps less; at 32 the pool needs an intermediate CXL switch
// (~270ns end-to-end pool access, only 25% under a 2-hop access) yet
// the bandwidth benefit remains.
func (r *Runner) Ext32Sockets() (*Table, error) {
	specs, err := r.opts.specs()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "ext32",
		Title:   "Extension (§III-B): StarNUMA across system scales (8/16/32 sockets)",
		Columns: []string{"workload", "8-socket", "16-socket", "32-socket (switched)"},
		Notes:   "§III-B: with a CXL switch the latency gap to a 2-hop access shrinks, but the pool's added bandwidth for heavily shared pages remains; the design targets 8-32 sockets",
	}

	base8 := core.BaselineSystem()
	base8.Topology.Sockets = 8
	sn8 := core.StarNUMASystem()
	sn8.Topology.Sockets = 8

	base32 := core.BaselineSystem()
	base32.Topology.Sockets = 32
	sn32 := core.StarNUMASystem()
	sn32.Topology.Sockets = 32
	sn32.Pool.Latency = pool.SwitchedLatency()
	sn32.Topology.CXLOneWay = sn32.Pool.Latency.OneWay()

	cfgB := r.opts.Sim
	cfgB.Policy = core.PolicyPerfectBaseline
	// 8 sockets: Algorithm 1's "half the system" threshold is 4.
	cfgS8 := r.opts.Sim
	cfgS8.Migration.PoolSharerThreshold = 4
	cfgS32 := r.opts.Sim
	cfgS32.Migration.PoolSharerThreshold = 16
	b8 := variant{"baseline-8", base8, cfgB}
	s8 := pooled("starnuma-8", sn8, cfgS8)
	b32 := variant{"baseline-32", base32, cfgB}
	s32 := pooled("starnuma-32", sn32, cfgS32)
	g, err := r.grid(specs, b8, s8, r.baselineVariant(), r.starnumaVariant(), b32, s32)
	if err != nil {
		return nil, err
	}
	t.addColumns(gmeanLabels(specs),
		speedupCol(g[1], g[0]), speedupCol(g[3], g[2]), speedupCol(g[5], g[4]))
	return t, nil
}

// ExtSoftwareTracking quantifies §III-D1's motivation for hardware
// tracking support: conventional OS page-poisoning sampling either
// monitors too few pages to find pool candidates fast enough (small
// samples) or drowns the workload in minor page faults (large samples).
func (r *Runner) ExtSoftwareTracking() (*Table, error) {
	specs, err := r.opts.specs()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "extsw",
		Title:   "Extension (§III-D1): hardware tracking vs OS sampling",
		Columns: []string{"workload", "hardware", "sample 5%", "sample 25%", "sample 100%", "faults@100%"},
		Notes:   "§III-D1: practical software sample sizes cannot identify pool candidates at a sufficient rate; monitoring everything in software is fault-prohibitive — hence hardware support",
	}
	vs := []variant{r.baselineVariant(), r.starnumaVariant()}
	for _, frac := range []float64{0.05, 0.25, 1.0} {
		cfg := r.opts.Sim
		cfg.SoftwareTracking = core.DefaultSoftwareTracking()
		cfg.SoftwareTracking.Enable = true
		cfg.SoftwareTracking.SampleFrac = frac
		vs = append(vs, pooled(fmt.Sprintf("starnuma-sw%.2f", frac), core.StarNUMASystem(), cfg))
	}
	g, err := r.grid(specs, vs...)
	if err != nil {
		return nil, err
	}
	var cols [][]string
	for _, sn := range g[1:] {
		cols = append(cols, speedupCol(sn, g[0]))
	}
	full := g[len(g)-1] // the 100% sample
	cols = append(cols, perRow(full, func(res *core.Result) string { return fmt.Sprint(res.PageFaults) }))
	t.addColumns(gmeanLabels(specs), cols...)
	return t, nil
}

// ExtDrift probes §V-B's stability observation from the other side: the
// paper finds sharing patterns stable enough that oracular *static*
// placement is at least as good as dynamic migration (Fig. 9). Under
// non-stationary placement affinity the ordering must flip. Widely
// shared pages are immune by construction (the pool is a good home no
// matter *which* sockets share), so the probe uses POA — the fully
// private workload — with a fraction of its pages rotating owner socket
// every phase: dynamic migration re-localises them each phase, a
// one-shot oracle cannot.
func (r *Runner) ExtDrift() (*Table, error) {
	t := &Table{
		ID:      "extdrift",
		Title:   "Extension (§V-B): dynamic migration vs static oracle under placement drift (POA)",
		Columns: []string{"drift", "dynamic migration", "static oracle", "starnuma dynamic"},
		Notes:   "Fig. 9 shows static ≥ dynamic for the paper's stable workloads; once page affinity drifts, dynamic migration wins and the oracle goes stale — quantifying when migration machinery earns its keep",
	}
	// Reference: baseline with dynamic perfect-knowledge migration.
	cfgB := r.opts.Sim
	cfgB.Policy = core.PolicyPerfectBaseline
	// Static oracle on the same architecture.
	cfgS := r.opts.Sim
	cfgS.Policy = core.PolicyOracle

	drifts := []float64{0, 0.25, 0.5}
	var cells []cell // per drift: dynamic, static, StarNUMA
	for _, drift := range drifts {
		spec, err := workload.ByName("POA", r.opts.Scale)
		if err != nil {
			return nil, err
		}
		spec.DriftFrac = drift
		// An epoch lasts two phases: long enough for phase-granularity
		// migration to catch up, short enough that a one-shot oracle is
		// stale most of the time.
		spec.DriftPeriod = 2
		spec.Name = fmt.Sprintf("POA-drift%.0f%%", 100*drift)
		cells = append(cells,
			cell{variant{"drift-dynamic-" + spec.Name, core.BaselineSystem(), cfgB}, spec},
			cell{variant{"drift-static-" + spec.Name, core.BaselineSystem(), cfgS}, spec},
			// StarNUMA's own policy on the pool-equipped system.
			cell{pooled("drift-starnuma-"+spec.Name, core.StarNUMASystem(), r.opts.Sim), spec})
	}
	res, err := r.results(cells)
	if err != nil {
		return nil, err
	}
	for i, drift := range drifts {
		rb, rs, rd := res[3*i], res[3*i+1], res[3*i+2]
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0f%%", 100*drift),
			x(1.0), x(core.Speedup(rs, rb)), x(core.Speedup(rd, rb)),
		})
	}
	return t, nil
}
