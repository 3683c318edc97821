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
	// TrackerFlushes is the tracker metadata traffic from step B.
	TrackerFlushes uint64
	// PoolPages is the number of pages resident in the pool at the end.
	PoolPages int
	// ReplicatedPages is the replication study's (§V-F) replica set size.
	ReplicatedPages int
	// FaultDrainedPages counts pages step B drained off failing pool
	// channels (internal/fault); zero without a fault plan.
	FaultDrainedPages uint64

	// Counters sums the step-C windows' additive totals.
	Counters

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
}

// Counters are step C's additive totals: a timing window counts into
// one, and Plan.Assemble sums the windows' into the Result's.
type Counters struct {
	// Instructions / Misses are post-warmup totals.
	Instructions uint64
	Misses       uint64
	// SimulatedTime is the summed wall-clock of the timing windows.
	SimulatedTime sim.Time
	// Dir is the coherence directory activity.
	Dir coherence.Stats
	// TLB is the translation subsystem's activity (shootdowns, targeted
	// cores, induced walks).
	TLB tlb.Stats
	// MigrStalledAccesses counts accesses that waited on an in-flight
	// page migration.
	MigrStalledAccesses uint64
	// Replication study (§V-F) counters.
	ReplicaReads       uint64
	ReplicaWriteStalls uint64
	// PageFaults counts minor faults taken by the software-tracking
	// study's poisoned pages.
	PageFaults uint64
	// Fault-injection totals (internal/fault), summed over the link
	// injectors: sends served with degraded latency/bandwidth and sends
	// delayed by a flapping link. Zero without a plan.
	FaultDegradedSends uint64
	FaultFlapRetries   uint64
}

// add sums o into c.
func (c *Counters) add(o Counters) {
	c.Instructions += o.Instructions
	c.Misses += o.Misses
	c.SimulatedTime += o.SimulatedTime
	c.Dir.Transactions += o.Dir.Transactions
	c.Dir.BT3Hop += o.Dir.BT3Hop
	c.Dir.BT4Hop += o.Dir.BT4Hop
	c.Dir.Invalidations += o.Dir.Invalidations
	c.TLB.Hits += o.TLB.Hits
	c.TLB.Walks += o.TLB.Walks
	c.TLB.ShootdownWalks += o.TLB.ShootdownWalks
	c.TLB.Shootdowns += o.TLB.Shootdowns
	c.TLB.ShootdownTargets += o.TLB.ShootdownTargets
	c.MigrStalledAccesses += o.MigrStalledAccesses
	c.ReplicaReads += o.ReplicaReads
	c.ReplicaWriteStalls += o.ReplicaWriteStalls
	c.PageFaults += o.PageFaults
	c.FaultDegradedSends += o.FaultDegradedSends
	c.FaultFlapRetries += o.FaultFlapRetries
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
