package exp

import (
	"fmt"

	"starnuma/internal/core"
	"starnuma/internal/pool"
	"starnuma/internal/stats"
	"starnuma/internal/topology"
	"starnuma/internal/tracker"
	"starnuma/internal/workload"
)

// sharingFigure builds the Fig. 2/13 characterisation of workload wl
// at the runner's footprint scale.
func (r *Runner) sharingFigure(id, wl, notes string) (*Table, error) {
	spec, err := workload.ByName(wl, r.opts.Scale)
	if err != nil {
		return nil, err
	}
	t, err := SharingTable(spec)
	if err != nil {
		return nil, err
	}
	t.ID, t.Notes = id, notes
	return t, nil
}

// SharingTable characterises any workload the way Fig. 2/13 do: page
// and access distributions by sharing degree, both analytic (from the
// spec) and empirically sampled from the generator.
func SharingTable(spec workload.Spec) (*Table, error) {
	gen, err := workload.NewGenerator(spec, 16, 4)
	if err != nil {
		return nil, err
	}
	pagesA, accsA := spec.SharingHistogram(16)

	// Empirical: page histogram over the footprint, access histogram
	// over a sample of generated misses.
	pagesE := make([]float64, 17)
	for p := 0; p < gen.NumPages(); p++ {
		pagesE[len(gen.Sharers(uint32(p)))] += 1.0 / float64(gen.NumPages())
	}
	accsE := make([]float64, 17)
	const samples = 200_000
	for i := 0; i < samples; i++ {
		a := gen.Next(i % gen.NumCores())
		accsE[len(gen.Sharers(a.Page))] += 1.0 / samples
	}

	t := &Table{
		ID:      "sharing",
		Title:   spec.Name + " page sharing and access distributions",
		Columns: []string{"sharers", "pages(model)", "pages(measured)", "accesses(model)", "accesses(measured)"},
	}
	sum := func(h []float64, lo, hi int) float64 {
		var s float64
		for k := lo; k <= hi; k++ {
			s += h[k]
		}
		return s
	}
	for _, b := range workload.SharingBuckets {
		label := fmt.Sprintf("%d", b[0])
		if b[1] != b[0] {
			label = fmt.Sprintf("%d-%d", b[0], b[1])
		}
		t.Rows = append(t.Rows, []string{
			label,
			pct(sum(pagesA, b[0], b[1])), pct(sum(pagesE, b[0], b[1])),
			pct(sum(accsA, b[0], b[1])), pct(sum(accsE, b[0], b[1])),
		})
	}
	return t, nil
}

// Fig2 reproduces the BFS access-pattern characterisation (Fig. 2).
func (r *Runner) Fig2() (*Table, error) {
	return r.sharingFigure("fig2", "BFS",
		"17% single-sharer pages, 78% ≤4 sharers; >8-sharer pages take 68% of accesses, 16-shared pages 36%")
}

// Fig13 reproduces the TC characterisation (Fig. 13).
func (r *Runner) Fig13() (*Table, error) {
	return r.sharingFigure("fig13", "TC",
		"60% of pages touched by all 16 sockets, 80% by 8+; accesses spread nearly in proportion (read-only)")
}

// Fig3 reports the CXL memory pool access latency budget (Fig. 3).
func Fig3() *Table {
	l := pool.DefaultLatency()
	t := &Table{
		ID:      "fig3",
		Title:   "CXL memory pool access latency breakdown (round trip)",
		Columns: []string{"component", "latency"},
		Notes:   "25+25+20+10+20 = 100ns interconnect overhead; 180ns end-to-end with DRAM",
	}
	t.Rows = append(t.Rows,
		[]string{"processor CXL port", ns(l.ProcessorPort.Nanos())},
		[]string{"MHD CXL port", ns(l.MHDPort.Nanos())},
		[]string{"retimer", ns(l.Retimer.Nanos())},
		[]string{"flight time", ns(l.Flight.Nanos())},
		[]string{"MHD internal (NoC+dir)", ns(l.MHDInternal.Nanos())},
		[]string{"total overhead", ns(l.RoundTrip().Nanos())},
		[]string{"end-to-end (with 80ns mem)", ns(l.RoundTrip().Nanos() + 80)},
	)
	return t
}

// Fig4 reports coherence block-transfer latencies (Fig. 4): the mean
// unloaded 3-hop socket path vs the 4-hop pool path.
func Fig4() *Table {
	topo := topology.New(topology.DefaultConfig())
	sum, n := topo.ThreeHopPaths()
	threeHop := float64(sum) / float64(n) / 1000
	pn := topo.PoolNode()
	fourHop := (topo.OneWayLatency(0, pn) + topo.OneWayLatency(pn, 9) +
		topo.OneWayLatency(9, pn) + topo.OneWayLatency(pn, 0)).Nanos()
	t := &Table{
		ID:      "fig4",
		Title:   "Coherence-triggered block transfer network latency (unloaded)",
		Columns: []string{"path", "network", "with mem+dir (80ns)"},
		Notes:   "3-hop averages 333ns, 4-hop via pool 200ns; BT_Socket 413ns, BT_Pool 280ns",
	}
	t.Rows = append(t.Rows,
		[]string{"3-hop R→H→O→R (mean)", ns(threeHop), ns(threeHop + 80)},
		[]string{"4-hop via pool", ns(fourHop), ns(fourHop + 80)},
	)
	return t
}

// Table3 reproduces the workload summary (Table III): measured 16-socket
// baseline IPC, measured single-socket IPC, and LLC MPKI.
func (r *Runner) Table3() (*Table, error) {
	specs, err := r.opts.specs()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "tab3",
		Title:   "Workload summary: per-core IPC and LLC MPKI",
		Columns: []string{"workload", "IPC (16-socket)", "IPC (1-socket)", "MPKI", "paper IPC16", "paper IPC1", "paper MPKI"},
		Notes:   "the 2-10x IPC gap between single- and 16-socket execution shows the NUMA penalty",
	}
	cfg1 := r.opts.Sim
	cfg1.Policy = core.PolicyNone
	single := variant{"single-socket", core.SingleSocketSystem(), cfg1}
	g, err := r.grid(specs, r.baselineVariant(), single)
	if err != nil {
		return nil, err
	}
	for i, spec := range specs {
		rb, r1 := g[0][i], g[1][i]
		t.Rows = append(t.Rows, []string{
			spec.Name, f3(rb.IPC), f3(r1.IPC), f2(rb.MPKI),
			"", f2(spec.SingleSocketIPC), f2(spec.MPKI),
		})
	}
	return t, nil
}

// fig8data runs the three Fig. 8 systems for every workload: g[0] is
// the baseline, g[1] StarNUMA with the T16 tracker, g[2] with T0.
func (r *Runner) fig8data() ([]workload.Spec, [][]*core.Result, error) {
	specs, err := r.opts.specs()
	if err != nil {
		return nil, nil, err
	}
	cfg0 := r.opts.Sim
	cfg0.Tracker = tracker.T0
	t0v := pooled("starnuma-t0", core.StarNUMASystem(), cfg0)
	g, err := r.grid(specs, r.baselineVariant(), r.starnumaVariant(), t0v)
	return specs, g, err
}

// Fig8a reproduces the speedup chart: StarNUMA (T16 and T0) over the
// baseline.
func (r *Runner) Fig8a() (*Table, error) {
	specs, g, err := r.fig8data()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig8a",
		Title:   "StarNUMA IPC normalized to baseline",
		Columns: []string{"workload", "T16 speedup", "T0 speedup"},
		Notes:   "T16 averages 1.54x (max 2.17x on SSSP); T0 captures most of it at 1.35x; POA 1.0x",
	}
	t.addColumns(gmeanLabels(specs), speedupCol(g[1], g[0]), speedupCol(g[2], g[0]))
	return t, nil
}

// Fig8b reproduces the AMAT decomposition: unloaded latency plus
// contention delay, baseline vs StarNUMA.
func (r *Runner) Fig8b() (*Table, error) {
	specs, g, err := r.fig8data()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig8b",
		Title:   "Average memory access time: unloaded + contention",
		Columns: []string{"workload", "base unloaded", "base contention", "base AMAT", "SN unloaded", "SN contention", "SN AMAT", "reduction"},
		Notes:   "StarNUMA reduces AMAT by 48% on average; bandwidth-bound SSSP/BFS are contention-dominated in the baseline",
	}
	var reductions []float64
	for i, spec := range specs {
		b, s := g[0][i].AMAT, g[1][i].AMAT
		red := 0.0
		if b.Measured() > 0 {
			red = 1 - float64(s.Measured())/float64(b.Measured())
		}
		reductions = append(reductions, red)
		t.Rows = append(t.Rows, []string{
			spec.Name,
			ns(b.Unloaded().Nanos()), ns(b.Contention().Nanos()), ns(b.Measured().Nanos()),
			ns(s.Unloaded().Nanos()), ns(s.Contention().Nanos()), ns(s.Measured().Nanos()),
			pct(red),
		})
	}
	t.Rows = append(t.Rows, []string{"mean", "", "", "", "", "", "", pct(stats.Mean(reductions))})
	return t, nil
}

// Fig8c reproduces the memory access breakdown by type.
func (r *Runner) Fig8c() (*Table, error) {
	specs, g, err := r.fig8data()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig8c",
		Title:   "Memory access breakdown (baseline | StarNUMA)",
		Columns: []string{"workload", "system", "local", "1-hop", "2-hop", "pool", "BT_socket", "BT_pool"},
		Notes:   "StarNUMA converts most 2-hop accesses into pool accesses; BT is ~10% and mostly shifts to the pool path; POA is 100% local",
	}
	addRow := func(wl, system string, res *core.Result) {
		fr := res.AMAT.Breakdown().Fractions()
		t.Rows = append(t.Rows, []string{
			wl, system,
			pct(fr[stats.Local]), pct(fr[stats.OneHop]), pct(fr[stats.TwoHop]),
			pct(fr[stats.Pool]), pct(fr[stats.BTSocket]), pct(fr[stats.BTPool]),
		})
	}
	for i, spec := range specs {
		addRow(spec.Name, "baseline", g[0][i])
		addRow(spec.Name, "starnuma", g[1][i])
	}
	return t, nil
}

// Table4 reproduces the fraction of migrations targeting the pool.
func (r *Runner) Table4() (*Table, error) {
	specs, g, err := r.fig8data()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "tab4",
		Title:   "Fraction of migrated pages placed in the pool (T16)",
		Columns: []string{"workload", "to pool", "pages to pool", "pages to sockets", "paper"},
		Notes:   "SSSP 80%, BFS 100%, CC 99%, TC 80%, Masstree 100%, TPCC 93%, FMI 47%, POA 0%; gmean (excl. POA) 83%",
	}
	paperVals := map[string]string{
		"SSSP": "80%", "BFS": "100%", "CC": "99%", "TC": "80%",
		"Masstree": "100%", "TPCC": "93%", "FMI": "47%", "POA": "0%",
	}
	for i, spec := range specs {
		ms := g[1][i].MigrStats
		t.Rows = append(t.Rows, []string{
			spec.Name, pct(ms.PoolFraction()),
			fmt.Sprintf("%d", ms.PagesToPool), fmt.Sprintf("%d", ms.PagesToSocket),
			paperVals[spec.Name],
		})
	}
	return t, nil
}

// Fig9 reproduces the oracular static placement study: static placement
// on both architectures, normalized to the baseline with dynamic
// migration.
func (r *Runner) Fig9() (*Table, error) {
	specs, err := r.opts.specs()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig9",
		Title:   "Oracular static placement, normalized to baseline w/ dynamic migration",
		Columns: []string{"workload", "baseline+static", "starnuma+static", "starnuma+dynamic"},
		Notes:   "static placement does not help the baseline (no good home for vagabond pages exists) but slightly beats dynamic StarNUMA (no migration overheads)",
	}
	cfgStatic := r.opts.Sim
	cfgStatic.Policy = core.PolicyOracle
	baseStatic := variant{"baseline-static", core.BaselineSystem(), cfgStatic}
	snStatic := variant{"starnuma-static", core.StarNUMASystem(), cfgStatic}
	g, err := r.grid(specs, r.baselineVariant(), r.starnumaVariant(), baseStatic, snStatic)
	if err != nil {
		return nil, err
	}
	t.addColumns(gmeanLabels(specs),
		speedupCol(g[2], g[0]), speedupCol(g[3], g[0]), speedupCol(g[1], g[0]))
	return t, nil
}

// Fig10 reproduces the memory pool latency sensitivity study: the
// default 100ns CXL penalty vs 190ns (an intermediate CXL switch).
func (r *Runner) Fig10() (*Table, error) {
	specs, err := r.opts.specs()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig10",
		Title:   "Speedup over baseline for different CXL latency penalties",
		Columns: []string{"workload", "100ns penalty", "190ns penalty"},
		Notes:   "average speedup drops from 1.54x to 1.34x; latency-driven TC is hit hardest (1.63x → 1.11x)",
	}
	slow := core.StarNUMASystem()
	slow.Pool.Latency = pool.SwitchedLatency()
	slow.Topology.CXLOneWay = slow.Pool.Latency.OneWay()
	switched := pooled("starnuma-switched", slow, r.opts.Sim)
	g, err := r.grid(specs, r.baselineVariant(), r.starnumaVariant(), switched)
	if err != nil {
		return nil, err
	}
	t.addColumns(gmeanLabels(specs), speedupCol(g[1], g[0]), speedupCol(g[2], g[0]))
	return t, nil
}

// Fig11 reproduces the bandwidth provisioning study.
func (r *Runner) Fig11() (*Table, error) {
	specs, err := r.opts.specs()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig11",
		Title:   "Speedup over baseline for different link bandwidth provisioning",
		Columns: []string{"workload", "baseline ISO-BW", "baseline 2xBW", "starnuma half-BW", "starnuma"},
		Notes:   "ISO-BW 1.14x, 2xBW still trails StarNUMA by 12% on average; only BFS slightly prefers 2xBW; half-BW StarNUMA still beats ISO-BW by 11%",
	}
	// ISO-BW: pro-rate StarNUMA's added 640GB/s across coherent links
	// (§V-D): UPI 20.8→26.4, NUMALink 13→17 full scale; scaled 3GB/s
	// links grow by the same ratios.
	iso := core.BaselineSystem()
	iso.UPIBandwidth = 3 * 26.4 / 20.8
	iso.NUMABandwidth = 3 * 17.0 / 13.0
	twoX := core.BaselineSystem()
	twoX.UPIBandwidth = 6
	twoX.NUMABandwidth = 6
	half := core.StarNUMASystem()
	half.Pool.LinkBW = half.Pool.LinkBW / 2
	cfgB := r.opts.Sim
	cfgB.Policy = core.PolicyPerfectBaseline
	isoV := variant{"baseline-isobw", iso, cfgB}
	twoXV := variant{"baseline-2xbw", twoX, cfgB}
	halfV := pooled("starnuma-halfbw", half, r.opts.Sim)
	g, err := r.grid(specs, r.baselineVariant(), r.starnumaVariant(), isoV, twoXV, halfV)
	if err != nil {
		return nil, err
	}
	t.addColumns(gmeanLabels(specs), speedupCol(g[2], g[0]), speedupCol(g[3], g[0]),
		speedupCol(g[4], g[0]), speedupCol(g[1], g[0]))
	return t, nil
}

// Fig12 reproduces the pool capacity study: a chassis-sized pool (1/5 of
// the footprint) vs a socket-sized pool (1/17).
func (r *Runner) Fig12() (*Table, error) {
	specs, err := r.opts.specs()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig12",
		Title:   "Speedup over baseline for different memory pool capacities",
		Columns: []string{"workload", "1/5 capacity", "1/17 capacity"},
		Notes:   "average drops only 1.54x → 1.48x; FMI most affected (1.22x → 1.05x); most workloads insensitive to pool size",
	}
	small := core.StarNUMASystem()
	small.Pool.CapacityFraction = 1.0 / 17
	smallV := pooled("starnuma-smallpool", small, r.opts.Sim)
	g, err := r.grid(specs, r.baselineVariant(), r.starnumaVariant(), smallV)
	if err != nil {
		return nil, err
	}
	t.addColumns(gmeanLabels(specs), speedupCol(g[1], g[0]), speedupCol(g[2], g[0]))
	return t, nil
}

// fig14Workloads is the subset the paper re-evaluates under alternative
// simulation configurations.
var fig14Workloads = []string{"BFS", "TC", "FMI"}

// Fig14 reproduces the methodology robustness study: SC1 (default), SC2
// (3x more detailed instructions per phase) and SC3 (doubled system
// scale: 8 cores/socket with 2x memory and interconnect bandwidth).
func (r *Runner) Fig14() (*Table, error) {
	t := &Table{
		ID:      "fig14",
		Title:   "StarNUMA speedup under alternative simulation configurations",
		Columns: []string{"workload", "SC1", "SC2 (3x window)", "SC3 (2x scale)"},
		Notes:   "SC2/SC3 within ~5% of SC1 for TC and FMI; BFS improves from 1.7x to 2.0x/1.8x — qualitatively identical",
	}
	sc2 := r.opts.Sim
	sc2.TimedInstr *= 3
	if sc2.TimedInstr > sc2.PhaseInstr {
		sc2.TimedInstr = sc2.PhaseInstr
	}
	sc3sysB := core.BaselineSystem()
	sc3sysB.CoresPerSocket = 8
	sc3sysB.UPIBandwidth *= 2
	sc3sysB.NUMABandwidth *= 2
	sc3sysB.SocketMem.Channels *= 2
	sc3sysS := core.StarNUMASystem()
	sc3sysS.CoresPerSocket = 8
	sc3sysS.UPIBandwidth *= 2
	sc3sysS.NUMABandwidth *= 2
	sc3sysS.SocketMem.Channels *= 2
	sc3sysS.Pool.LinkBW *= 2
	sc3sysS.Pool.Channels *= 2

	var specs []workload.Spec
	for _, wl := range fig14Workloads {
		spec, err := workload.ByName(wl, r.opts.Scale)
		if err != nil {
			return nil, err
		}
		specs = append(specs, spec)
	}
	cfgB2 := sc2
	cfgB2.Policy = core.PolicyPerfectBaseline
	cfgB3 := r.opts.Sim
	cfgB3.Policy = core.PolicyPerfectBaseline
	b2 := variant{"sc2-baseline", core.BaselineSystem(), cfgB2}
	s2 := pooled("sc2-starnuma", core.StarNUMASystem(), sc2)
	b3 := variant{"sc3-baseline", sc3sysB, cfgB3}
	s3 := pooled("sc3-starnuma", sc3sysS, r.opts.Sim)
	g, err := r.grid(specs, r.baselineVariant(), r.starnumaVariant(), b2, s2, b3, s3)
	if err != nil {
		return nil, err
	}
	// The paper reports no mean across this three-workload subset.
	t.addColumns(specNames(specs),
		speedupCol(g[1], g[0]), speedupCol(g[3], g[2]), speedupCol(g[5], g[4]))
	return t, nil
}
