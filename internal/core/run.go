package core

import (
	"starnuma/internal/attrib"
	"starnuma/internal/coherence"
	"starnuma/internal/evtrace"
	"starnuma/internal/metrics"
	"starnuma/internal/migrate"
	"starnuma/internal/sim"
	"starnuma/internal/stats"
	"starnuma/internal/tlb"
	"starnuma/internal/topology"
	"starnuma/internal/workload"
)

// Result aggregates a workload's statistics across all simulated
// checkpoints, the quantities behind the paper's Fig. 8 and Tables
// III/IV.
type Result struct {
	Workload string
	Policy   PolicySpec
	Tracker  string

	// IPC is the mean per-core post-warmup IPC across checkpoints.
	IPC float64
	// AMAT carries the measured mean, the analytically derived unloaded
	// component, and the access-type breakdown.
	AMAT *stats.AMAT
	// MPKI is the measured miss rate.
	MPKI float64

	// MigrStats summarises step B's migration decisions (Table IV).
	MigrStats migrate.Stats
	// Dir sums the coherence directory activity of all windows.
	Dir coherence.Stats
	// PoolPages is the number of pages resident in the pool at the end.
	PoolPages int
	// MigrStalledAccesses counts accesses that waited on an in-flight
	// page migration.
	MigrStalledAccesses uint64
	// TrackerFlushes is the tracker metadata traffic from step B.
	TrackerFlushes uint64
	// TLB sums the translation subsystem's activity across windows
	// (shootdowns, targeted cores, induced walks).
	TLB tlb.Stats
	// Replication study (§V-F) counters.
	ReplicatedPages    int
	ReplicaReads       uint64
	ReplicaWriteStalls uint64
	// PageFaults counts minor faults taken by the software-tracking
	// study's poisoned pages during timing windows.
	PageFaults uint64
	// Fault-injection totals (internal/fault): sends served with
	// degraded latency/bandwidth, sends delayed by a flapping link, and
	// pages drained off failing pool channels. All zero without a plan.
	FaultDegradedSends uint64
	FaultFlapRetries   uint64
	FaultDrainedPages  uint64
	// SimulatedTime is the summed wall-clock of the timing windows.
	SimulatedTime sim.Time
	// Instructions / Misses are post-warmup totals.
	Instructions uint64
	Misses       uint64

	// Metrics is the merged instrumentation snapshot (step B plus every
	// window in checkpoint order); nil unless SimConfig.CollectMetrics.
	// It rides through the runner's result cache like every other field.
	Metrics *metrics.Snapshot `json:",omitempty"`

	// Profile is the stall-attribution profile (internal/attrib): one
	// WindowProfile per timing window in checkpoint order; nil unless
	// SimConfig.Attrib. It rides through the runner's result cache like
	// Metrics, and is omitted from JSON when absent so attribution-off
	// results encode byte-identically to pre-attribution ones.
	Profile *attrib.Profile `json:",omitempty"`

	// Trace is the merged event-trace buffer (step-C windows laid end to
	// end on one timeline, then step B's phase-clock events translated
	// onto it); nil unless SimConfig.Trace. Excluded from JSON so traces
	// never enter the result cache — a cache hit skips simulation and
	// therefore cannot produce one.
	Trace *evtrace.Buffer `json:"-"`

	// ipcs accumulates per-core post-warmup IPC samples across merged
	// windows, in checkpoint order; Plan.Assemble reduces them to IPC.
	ipcs []float64
	// traceOff is the cumulative simulated time of merged windows: the
	// timeline offset the next window's events shift by. windowOffsets
	// records each merged window's start offset, in merge order, for
	// translating step B's phase-clock events.
	traceOff      sim.Time
	windowOffsets []sim.Time
}

// CoherenceTxnIntervalNS returns the mean simulated time between
// directory transactions in nanoseconds (§V-A observes ~100ns on the
// pool's directory). Returns 0 when no transactions occurred.
func (r *Result) CoherenceTxnIntervalNS() float64 {
	if r.Dir.Transactions == 0 {
		return 0
	}
	return r.SimulatedTime.Nanos() / float64(r.Dir.Transactions)
}

// Run executes the full three-step pipeline for one workload on one
// system and returns aggregated statistics.
func Run(sys SystemConfig, cfg SimConfig, spec workload.Spec) (*Result, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	topo := topology.New(sys.Topology)
	gen, err := workload.NewGenerator(spec, topo.Sockets(), sys.CoresPerSocket)
	if err != nil {
		return nil, err
	}
	return RunSource(sys, cfg, gen)
}

// RunSource executes the pipeline over an arbitrary access source (a
// synthetic generator or a trace replay): step B via NewPlan, then the
// step-C windows sequentially in checkpoint order. internal/runner runs
// the same windows concurrently; both paths produce bit-identical
// Results because Assemble merges in checkpoint order either way.
func RunSource(sys SystemConfig, cfg SimConfig, gen AccessSource) (*Result, error) {
	p, err := NewPlan(sys, cfg, gen)
	if err != nil {
		return nil, err
	}
	windows := make([]Window, p.NumWindows())
	for i := range windows {
		windows[i] = p.RunWindow(i, gen)
	}
	return p.Assemble(windows), nil
}

// Speedup returns the IPC ratio of r over base.
func Speedup(r, base *Result) float64 {
	if stats.IsZero(base.IPC) {
		return 0
	}
	return r.IPC / base.IPC
}
