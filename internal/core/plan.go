package core

import (
	"fmt"
	"math"

	"starnuma/internal/attrib"
	"starnuma/internal/evtrace"
	"starnuma/internal/metrics"
	"starnuma/internal/sim"
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
// RunWindow and folded into a Result by Assemble. It is opaque: the
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

// Assemble merges the windows, indexed by checkpoint, into the run's
// Result, and computes the derived aggregates (IPC, MPKI, replication
// and pool placement counts). Windows merge in slice order: the counters
// are integer sums, but the float mean of the per-core IPC samples is
// order-sensitive, so checkpoint order gives bit-identical Results
// however the windows were executed. A degenerate run with no windows
// (or windows that retired nothing) yields zero aggregates, never NaN.
func (p *Plan) Assemble(windows []Window) *Result {
	topo := topology.New(p.sys.Topology)
	res := &Result{
		Workload:          p.spec.Name,
		Policy:            p.cfg.Policy,
		Tracker:           p.cfg.Tracker.String(),
		AMAT:              stats.NewAMAT(),
		MigrStats:         p.tr.MigrStats,
		TrackerFlushes:    p.tr.TrackerFlushes,
		FaultDrainedPages: p.tr.DrainedPages,
		Metrics:           p.tr.Metrics.Clone(),
	}
	res.AMAT.SetUnloadedLatencies(unloadedLatencies(topo,
		p.sys.SocketMem.OnChip+p.sys.SocketMem.DRAMLatency))
	if p.cfg.Instrument {
		res.Profile = attrib.NewProfile(topo.Sockets())
	}
	if p.cfg.Trace {
		res.Trace = evtrace.NewBuffer()
	}
	var ipcs []float64
	// traceOff is the cumulative simulated time of the windows merged so
	// far: the offset that lays the next window's events, simulated from
	// its own t=0, end to end after them. windowOffsets records each
	// window's offset to anchor step B's phase-clock events.
	var traceOff sim.Time
	var windowOffsets []sim.Time
	for _, w := range windows {
		st := w.stats
		res.Counters.add(st.Counters)
		res.AMAT.Merge(st.amat)
		ipcs = append(ipcs, st.ipcs...)
		if res.Profile != nil && st.prof != nil {
			res.Profile.Append(*st.prof)
		}
		if st.met != nil {
			if res.Metrics == nil {
				res.Metrics = &metrics.Snapshot{}
			}
			res.Metrics.Merge(st.met)
		}
		if res.Trace != nil {
			if st.trc != nil {
				st.trc.Shift(traceOff)
				res.Trace.Append(st.trc)
			}
			windowOffsets = append(windowOffsets, traceOff)
			traceOff += st.SimulatedTime
		}
	}
	if res.Trace != nil && p.tr.Trace != nil {
		res.Trace.Append(translateStepB(p.tr.Trace, windowOffsets, traceOff))
	}
	res.IPC = stats.Mean(ipcs)
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
	if topo.HasPool() {
		for _, h := range p.tr.FinalHome {
			if h == topo.PoolNode() {
				res.PoolPages++
			}
		}
	}
	return res
}
