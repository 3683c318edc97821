package migrate

import (
	"starnuma/internal/topology"
	"starnuma/internal/tracker"
)

// PolicyEnv is the observation API a policy factory receives: the static
// shape of the simulated system plus two feedback channels — per-phase
// placement feedback derived from the access counts, and the fault
// schedule's link-health outlook. It replaces the ad-hoc State field
// grabbing policies used to do at Decide time for anything that is not
// per-phase placement state: State stays the mutable placement view,
// PolicyEnv is everything a policy may observe about the world it runs
// in.
//
// Factories must treat the env as read-only; the closures are safe to
// call from Decide (they are evaluated against step B's single-threaded
// phase loop, so they share the policy's determinism contract).
type PolicyEnv struct {
	// Sockets/HasPool/PoolNode/PoolCapacityPages mirror the topology the
	// policy will place pages onto.
	Sockets           int
	HasPool           bool
	PoolNode          topology.NodeID
	PoolCapacityPages int

	// Pages is the workload footprint; NumRegions/RegionPages describe
	// the tracker granularity.
	Pages       int
	NumRegions  int
	RegionPages int
	// TrackerKind is the region tracker variant (T16 or T0).
	TrackerKind tracker.Kind

	// MeanRegionAccessesPerPhase is the workload's expected region heat —
	// the Config.AutoScale input core derives from core count, phase
	// length and MPKI.
	MeanRegionAccessesPerPhase float64

	// Seed drives the policy's random choices (Config.Seed lineage);
	// WorkloadSeed is the workload stream's seed, used where decisions
	// must match per-workload seeded companions (the static oracle).
	Seed         int64
	WorkloadSeed int64

	// BaseMigration carries the SimConfig.Migration knobs (Algorithm 1
	// family).
	BaseMigration Config

	// Replication carries the SimConfig.Replication knobs; the
	// replication policy falls back to DefaultReplicationConfig when the
	// study section is not enabled.
	Replication ReplicationConfig

	// Link reports the health outlook of the socket↔pool fabric for the
	// given phase's timing window (bandwidth-aware policies). Never nil
	// after NewPolicy; the default reports a healthy link.
	Link func(phase int) LinkHealth

	// Feedback reports the most recent completed phase's placement
	// feedback — the same numbers the metrics layer publishes under
	// migrate/policy/<name>/. Never nil after NewPolicy; the default
	// reports the zero PhaseFeedback.
	Feedback func() PhaseFeedback
}

// normalize fills nil closures so policies can call them untested.
func (e PolicyEnv) normalize() PolicyEnv {
	if e.Link == nil {
		e.Link = func(int) LinkHealth { return LinkHealth{} }
	}
	if e.Feedback == nil {
		e.Feedback = func() PhaseFeedback { return PhaseFeedback{} }
	}
	return e
}

// LinkHealth summarises the socket↔pool fabric's condition during one
// phase, derived from the fault schedule (fault.Schedule.Outlook plus
// the pool device state). The zero value means a healthy link.
type LinkHealth struct {
	// LatencyX is the worst active latency multiplier (≤1 = nominal).
	LatencyX float64
	// BandwidthDiv is the worst active bandwidth divisor (≤1 = nominal).
	BandwidthDiv float64
	// DownFrac is the fraction of the window the link spends down
	// retraining (flap events), in [0, 1).
	DownFrac float64
	// PoolDead marks the whole pool device as failed.
	PoolDead bool
	// PoolCapacityFrac is the usable fraction of nominal pool capacity
	// (surviving channels × capacity squeezes); 0 means unscaled.
	PoolCapacityFrac float64
}

// Severity collapses the health signal into a single effective-load
// multiplier ≥ 1: how much more expensive a pool access is, accounting
// for latency stretch, bandwidth division and flap downtime. PoolDead is
// not folded in — callers that must avoid a dead pool check it
// explicitly.
func (h LinkHealth) Severity() float64 {
	s := 1.0
	if h.LatencyX > s {
		s = h.LatencyX
	}
	if h.BandwidthDiv > s {
		s = h.BandwidthDiv
	}
	if h.DownFrac > 0 && h.DownFrac < 1 {
		if f := 1 / (1 - h.DownFrac); f > s {
			s = f
		}
	}
	return s
}

// PhaseFeedback is the per-phase placement feedback the environment
// exposes: how the previous phase's accesses landed relative to the
// placement the policy produced. Computed by ComputeFeedback.
type PhaseFeedback struct {
	// Phase is the completed phase the feedback describes.
	Phase int
	// Accesses is the phase's total access count; 0 means "no feedback
	// yet" (first decision point, or an idle phase).
	Accesses uint64
	// RemoteFrac is the fraction of accesses served by a remote socket —
	// neither the accessor's own memory nor the pool.
	RemoteFrac float64
	// PoolFrac is the fraction of accesses served by the pool.
	PoolFrac float64
	// PoolResidentPages counts pages homed in the pool at phase end.
	PoolResidentPages int
}

// ComputeFeedback derives one phase's PhaseFeedback from the phase's
// access counts and the end-of-phase placement. Untouched pages and
// pages with no home contribute nothing.
func ComputeFeedback(phase int, counts *PageCounts, home []topology.NodeID,
	hasPool bool, poolNode topology.NodeID) PhaseFeedback {
	fb := PhaseFeedback{Phase: phase}
	var local, remote, pooled uint64
	for pg := range home {
		h := home[pg]
		if h < 0 {
			continue
		}
		if hasPool && h == poolNode {
			fb.PoolResidentPages++ // residency counts every pool page, touched or not
		}
		p := uint32(pg)
		total := counts.Total(p)
		if total == 0 {
			continue
		}
		switch {
		case hasPool && h == poolNode:
			pooled += total
		case int(h) < counts.Sockets():
			c := uint64(counts.Count(p, int(h)))
			local += c
			remote += total - c
		default:
			remote += total
		}
	}
	fb.Accesses = local + remote + pooled
	if fb.Accesses > 0 {
		fb.RemoteFrac = float64(remote) / float64(fb.Accesses)
		fb.PoolFrac = float64(pooled) / float64(fb.Accesses)
	}
	return fb
}
