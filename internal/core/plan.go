package core

import (
	"fmt"
	"math"

	"starnuma/internal/attrib"
	"starnuma/internal/evtrace"
	"starnuma/internal/metrics"
	"starnuma/internal/stats"
	"starnuma/internal/topology"
	"starnuma/internal/workload"
)

// Plan is the prepared execution of one workload on one system: the
// validated configuration plus step B's trace-simulation output. It
// splits the pipeline so step C's timing windows — which are independent
// of one another once the checkpoints exist — can be executed in any
// order, including concurrently (internal/runner). A Plan is immutable
// after NewPlan and safe for concurrent RunWindow calls as long as each
// call gets its own AccessSource.
type Plan struct {
	sys  SystemConfig
	cfg  SimConfig
	spec workload.Spec
	tr   *TraceResult
}

// NewPlan validates the configuration and runs step B (trace simulation
// with migration decisions), consuming gen. The returned plan holds one
// checkpoint per phase, each describing an independent step-C window.
func NewPlan(sys SystemConfig, cfg SimConfig, gen AccessSource) (*Plan, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := sys.CheckFaults(cfg.Faults); err != nil {
		return nil, err
	}
	topo := topology.New(sys.Topology)
	if want := topo.Sockets() * sys.CoresPerSocket; gen.NumCores() != want {
		return nil, fmt.Errorf("core: source has %d cores, system needs %d", gen.NumCores(), want)
	}
	spec := gen.Spec()
	tr, err := TraceSimulate(sys, cfg, gen)
	if err != nil {
		return nil, err
	}
	if tr.ReplModel != nil {
		// The policy selected the replica set; carry its timing model
		// (write penalty) into the step-C windows.
		cfg.Replication = *tr.ReplModel
	}
	return &Plan{sys: sys, cfg: cfg, spec: spec, tr: tr}, nil
}

// NumWindows returns the number of step-C timing windows (one per
// checkpoint).
func (p *Plan) NumWindows() int { return len(p.tr.Checkpoints) }

// Checkpoint returns the i-th checkpoint.
func (p *Plan) Checkpoint(i int) Checkpoint { return p.tr.Checkpoints[i] }

// Trace returns step B's full output.
func (p *Plan) Trace() *TraceResult { return p.tr }

// Window is one step-C timing window's measurements, produced by
// RunWindow and folded into a Result by MergeWindow. It is opaque: the
// accumulation rules live in core, callers only route windows around.
type Window struct {
	stats windowStats
}

// RunWindow executes the i-th checkpoint's timing window. gen must
// replay the same per-core streams as the source the plan was built
// from; a fresh generator built from the same spec is equivalent, since
// streams are pure functions of (seed, core, phase) — that purity is
// what lets concurrent windows each own a private source. A window
// whose inputs match an earlier one's is recalled from the window memo
// (windowmemo.go) instead of simulated.
//
//starnuma:hotpath step-C entry point, one call per (window, worker)
func (p *Plan) RunWindow(i int, gen AccessSource) Window {
	chk := p.tr.Checkpoints[i]
	if key, ok := windowKeyOf(p.sys, p.cfg, gen.StreamSig(p.cfg.TimedInstr), chk, p.tr.Replicated); ok {
		return Window{stats: p.memoWindow(key, gen, chk)}
	}
	return Window{stats: runWindow(p.sys, p.cfg, gen, chk, p.tr.Replicated)}
}

// NewResult initialises the aggregate result: header fields, step-B
// summaries, and the AMAT accumulator with the plan's unloaded-latency
// constants. Windows are then folded in with MergeWindow.
func (p *Plan) NewResult() *Result {
	res := &Result{
		Workload:       p.spec.Name,
		Policy:         p.cfg.Policy,
		Tracker:        p.cfg.Tracker.String(),
		AMAT:           stats.NewAMAT(),
		MigrStats:      p.tr.MigrStats,
		TrackerFlushes: p.tr.TrackerFlushes,
		Metrics:        p.tr.Metrics.Clone(),

		FaultDrainedPages: p.tr.DrainedPages,
	}
	if p.cfg.Trace {
		res.Trace = evtrace.NewBuffer()
	}
	topo := topology.New(p.sys.Topology)
	if p.cfg.Attrib {
		res.Profile = attrib.NewProfile(topo.Sockets())
	}
	res.AMAT.SetUnloadedLatencies(unloadedLatencies(topo,
		p.sys.SocketMem.OnChip+p.sys.SocketMem.DRAMLatency))
	return res
}

// MergeWindow folds one window's measurements into r. All counters are
// integer sums, so merging is commutative except for the per-core IPC
// samples, whose float mean is order-sensitive: merge windows in
// checkpoint order to get bit-identical aggregates regardless of how
// the windows were executed.
//
//starnuma:hotpath one call per finished window on the merge goroutine
func (r *Result) MergeWindow(w Window) {
	r.AMAT.Merge(w.stats.amat)
	//starnumavet:allow hotalloc once per merged window, amortized over the run
	r.ipcs = append(r.ipcs, w.stats.ipcs...)
	r.Instructions += w.stats.instr
	r.Misses += w.stats.misses
	r.Dir.Transactions += w.stats.dir.Transactions
	r.Dir.BT3Hop += w.stats.dir.BT3Hop
	r.Dir.BT4Hop += w.stats.dir.BT4Hop
	r.Dir.Invalidations += w.stats.dir.Invalidations
	r.MigrStalledAccesses += w.stats.migrStalled
	r.SimulatedTime += w.stats.simTime
	r.TLB.Hits += w.stats.tlb.Hits
	r.TLB.Walks += w.stats.tlb.Walks
	r.TLB.ShootdownWalks += w.stats.tlb.ShootdownWalks
	r.TLB.Shootdowns += w.stats.tlb.Shootdowns
	r.TLB.ShootdownTargets += w.stats.tlb.ShootdownTargets
	r.ReplicaReads += w.stats.replicaReads
	r.ReplicaWriteStalls += w.stats.replicaWriteStalls
	r.PageFaults += w.stats.pageFaults
	r.FaultDegradedSends += w.stats.faultDegraded
	r.FaultFlapRetries += w.stats.faultRetries
	if r.Profile != nil && w.stats.prof != nil {
		r.Profile.Append(*w.stats.prof)
	}
	if w.stats.met != nil {
		if r.Metrics == nil {
			r.Metrics = &metrics.Snapshot{} //starnumavet:allow hotalloc one allocation per Result, on the first instrumented window
		}
		r.Metrics.Merge(w.stats.met)
	}
	if r.Trace != nil {
		// Windows each simulate from their own t=0; shifting by the
		// cumulative simulated time lays them end to end. The recorded
		// start offsets later anchor step B's phase-clock events.
		if w.stats.trc != nil {
			w.stats.trc.Shift(r.traceOff)
			r.Trace.Append(w.stats.trc)
		}
		//starnumavet:allow hotalloc once per traced window, amortized over the run
		r.windowOffsets = append(r.windowOffsets, r.traceOff)
		r.traceOff += w.stats.simTime
	}
}

// Assemble merges the windows in slice order and computes the derived
// aggregates (IPC, MPKI, replication and pool placement counts). Pass
// windows indexed by checkpoint for the deterministic ordering contract
// of MergeWindow. A degenerate run with no windows (or windows that
// retired nothing) yields zero aggregates, never NaN.
func (p *Plan) Assemble(windows []Window) *Result {
	res := p.NewResult()
	for _, w := range windows {
		res.MergeWindow(w)
	}
	if res.Trace != nil && p.tr.Trace != nil {
		res.Trace.Append(translateStepB(p.tr.Trace, res.windowOffsets, res.traceOff))
	}
	res.IPC = stats.Mean(res.ipcs)
	if math.IsNaN(res.IPC) || math.IsInf(res.IPC, 0) {
		res.IPC = 0
	}
	if res.Instructions > 0 {
		res.MPKI = float64(res.Misses) / float64(res.Instructions) * 1000
	}
	for _, rep := range p.tr.Replicated {
		if rep {
			res.ReplicatedPages++
		}
	}
	topo := topology.New(p.sys.Topology)
	if topo.HasPool() {
		for _, h := range p.tr.FinalHome {
			if h == topo.PoolNode() {
				res.PoolPages++
			}
		}
	}
	return res
}
