package core

import (
	"fmt"
	"strings"
)

// metricName turns a component name ("UPI:s0->s1", "pool.ch2") into a
// hierarchical metric path segment: lowercase, with "->" collapsed to
// "-" and ":"/"." becoming path separators.
func metricName(s string) string {
	s = strings.ToLower(s)
	s = strings.ReplaceAll(s, "->", "-")
	s = strings.ReplaceAll(s, ":", "/")
	s = strings.ReplaceAll(s, ".", "/")
	return s
}

// harvest dumps every substrate component's counters into the window's
// metrics registry at the end of the timing simulation. phase is the
// checkpoint phase, used as the sim-time bucket for series points so
// merged snapshots line up per phase. Reads only — harvesting never
// perturbs simulation state. The window's own totals come from ts.w,
// which runWindow fills before harvesting.
//
//starnuma:coldpath once-per-window metrics drain
func (ts *timingSystem) harvest(phase int) {
	m := ts.met
	t := int64(phase)
	w := &ts.w

	// Scheduler.
	m.Add("sim/events_fired", ts.eng.Fired())
	m.Point("sim/queue_depth_max", t, float64(ts.eng.MaxPending()))

	// Interconnect links, per directed channel.
	for _, l := range ts.links {
		st := l.Stats()
		name := "link/" + metricName(st.Name)
		m.Add(name+"/messages", st.Messages)
		m.Add(name+"/tx_bytes", st.Bytes)
		m.Add(name+"/busy_ps", uint64(st.BusyTime))
		m.Add(name+"/queued_ps", uint64(st.QueuedTime))
		m.Point(name+"/util", t, l.Utilization(w.SimulatedTime))
	}

	// Memory controllers, per channel.
	for _, ctrl := range ts.ctrls {
		for _, st := range ctrl.Stats() {
			name := "mem/" + metricName(st.Name)
			m.Add(name+"/accesses", st.Messages)
			m.Add(name+"/bytes", st.Bytes)
			m.Add(name+"/busy_ps", uint64(st.BusyTime))
			m.Add(name+"/queued_ps", uint64(st.QueuedTime))
		}
	}

	// Per-socket LLC presence model.
	for s, llc := range ts.llcs {
		st := llc.Stats()
		name := fmt.Sprintf("llc/s%d", s)
		m.Add(name+"/inserts", st.Inserts)
		m.Add(name+"/hits", st.Hits)
		m.Add(name+"/evictions", st.Evictions)
		m.Add(name+"/dirty_evictions", st.DirtyEvictions)
	}

	// Coherence directory.
	m.Add("coherence/transactions", w.Dir.Transactions)
	m.Add("coherence/bt_3hop", w.Dir.BT3Hop)
	m.Add("coherence/bt_4hop", w.Dir.BT4Hop)
	m.Add("coherence/invalidations", w.Dir.Invalidations)

	// Translation subsystem.
	m.Add("tlb/hits", w.TLB.Hits)
	m.Add("tlb/walks", w.TLB.Walks)
	m.Add("tlb/shootdown_walks", w.TLB.ShootdownWalks)
	m.Add("tlb/shootdowns", w.TLB.Shootdowns)
	m.Add("tlb/shootdown_targets", w.TLB.ShootdownTargets)
	m.Point("tlb/shootdowns_per_phase", t, float64(w.TLB.Shootdowns))

	// Fault injection; only when a schedule is active, so fault-free
	// manifests carry no fault/* keys.
	if ts.sched != nil {
		m.Add("fault/link/degraded_sends", w.FaultDegradedSends)
		m.Add("fault/link/flap_retries", w.FaultFlapRetries)
		m.Add("fault/link/retry_ps", uint64(w.faultRetryPS))
		m.Point("fault/events_active", t, float64(ts.sched.Active(phase)))
		if ts.topo.HasPool() {
			m.Point("fault/pool/channels_down", t,
				float64(ts.poolFault.FailedChannels(ts.sys.Pool.Channels)))
		}
	}

	// Migration and study counters surfaced by the window itself.
	m.Add("migrate/stalled_accesses", w.MigrStalledAccesses)
	m.Point("migrate/modeled", t, float64(w.migrModeled))
	m.Add("replica/reads", w.ReplicaReads)
	m.Add("replica/write_stalls", w.ReplicaWriteStalls)
	m.Add("tracker/page_faults", w.PageFaults)

	// Core aggregates per phase.
	m.Point("core/sim_time_ns", t, w.SimulatedTime.Nanos())
	m.Point("core/instructions", t, float64(w.Instructions))
	m.Point("core/misses", t, float64(w.Misses))
}
