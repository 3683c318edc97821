package core

import (
	"fmt"
	"math"
	"strconv"

	"starnuma/internal/evtrace"
	"starnuma/internal/fault"
	"starnuma/internal/metrics"
	"starnuma/internal/migrate"
	"starnuma/internal/sim"
	"starnuma/internal/topology"
	"starnuma/internal/tracker"
	"starnuma/internal/workload"
)

// Checkpoint is the output of step B for one phase: the page map at
// phase start plus the migrations that occur during the phase (§IV-A2).
type Checkpoint struct {
	Phase      int
	PageHome   []topology.NodeID // placement at phase start
	Migrations []migrate.Migration
}

// TraceResult bundles step B's outputs.
type TraceResult struct {
	Checkpoints []Checkpoint
	// Replicated marks the pages selected for replication — by the §V-F
	// study flag or by a replicating policy; nil when neither applies.
	Replicated []bool
	// ReplModel is the effective replication timing model when the policy
	// (rather than the study flag) selected the replica set; Plan threads
	// it into the step-C configuration. nil otherwise.
	ReplModel *migrate.ReplicationConfig
	// FinalHome is the placement after the last phase's decisions.
	FinalHome []topology.NodeID
	// Totals aggregates whole-run per-page access counts (oracle input,
	// Fig. 2/13 style analyses).
	Totals *migrate.PageCounts
	// MigrStats summarises the policy's decisions (Table IV).
	MigrStats migrate.Stats
	// TrackerFlushes is the metadata write traffic the tracker generated.
	TrackerFlushes uint64
	// DrainedPages counts pages evacuated from the pool in reaction to
	// fault-plan channel/device failures (graceful degradation).
	DrainedPages uint64
	// Metrics is step B's instrumentation snapshot (per-phase migration
	// decision series, pool residency); nil unless
	// SimConfig.CollectMetrics.
	Metrics *metrics.Snapshot
	// Trace is step B's event buffer — phase spans, migration/drain
	// decisions — on the phase-index clock (Ts = phase number);
	// Plan.Assemble translates it onto the timing windows' timeline.
	// nil unless SimConfig.Trace.
	Trace *evtrace.Buffer
}

// ingestPhase replays one phase into the first-touch map and the
// per-page counts. The phase's products come as one ingestEntry: for a
// source with stream signatures, from the ingest memo (see
// ingestmemo.go), which walks each (stream, phase) once however many
// runs ask for it, even at once; for an unsigned source, from a walk of
// its own. Either way the entry is applied the same way: its first
// touches claim the pages still unassigned, and its counts overwrite
// counts.
func ingestPhase(gen AccessSource, phase int, cfg SimConfig,
	home []topology.NodeID, counts *migrate.PageCounts) {
	walk := func() *ingestEntry { return walkPhase(gen, phase, cfg, home, counts.Sockets()) }
	var e *ingestEntry
	if sig := gen.StreamSig(cfg.PhaseInstr); sig != "" {
		e = ingestCache.Do(ingestKey{sig: sig, phase: phase}, walk)
	} else {
		e = walk()
	}
	for i, p := range e.firstPages {
		if home[p] == Unassigned {
			home[p] = e.firstHomes[i]
		}
	}
	counts.CopyFrom(e.pc)
}

// walkPhase walks one phase of gen's recorded arrays, one core at a
// time, into a fresh ingest entry: the phase's per-page counts, and the
// first toucher's socket of every page home leaves unassigned. Only
// first touch depends on access order, and it is defined by the cores
// interleaved round-robin at miss granularity (a stand-in for global
// instruction order): round r visits every core's r-th access in core
// order, so a page's first toucher is the core with the smallest
// (r, core) over the phase's accesses to it. After the walk only step
// C's prefix of the phase is read again, so the source is told to
// release the rest.
func walkPhase(gen AccessSource, phase int, cfg SimConfig,
	home []topology.NodeID, sockets int) *ingestEntry {
	s := gen.PhaseStream(phase, cfg.PhaseInstr)
	counts := migrate.NewPageCounts(len(home), sockets)
	// first[p] is page p's earliest touch so far. Cores run in
	// ascending order, so the strict < keeps the lower core on a tie.
	first := make([]firstTouch, len(home))
	for p := range first {
		first[p].round = untouched
	}
	for c := 0; c < gen.NumCores(); c++ {
		sock := gen.SocketOf(c)
		for r, w := range s.Words[s.Off[c]:s.Off[c+1]] {
			p := w >> workload.WordPageShift
			counts.Record(sock, p)
			counts.AddWrites(p, w&workload.WordWrite)
			if uint32(r) < first[p].round {
				first[p] = firstTouch{round: uint32(r), sock: uint32(sock)}
			}
		}
	}
	e := &ingestEntry{pc: counts}
	for p, f := range first {
		if f.round == untouched || home[p] != Unassigned {
			continue
		}
		e.firstPages = append(e.firstPages, uint32(p))
		e.firstHomes = append(e.firstHomes, topology.NodeID(f.sock))
	}
	gen.ReleasePhase(phase, cfg.PhaseInstr, cfg.TimedInstr)
	return e
}

// firstTouch is a page's earliest access in a phase: its round (index
// in its core's stream) and the toucher's socket. untouched is the
// round of a page the phase has not touched.
type firstTouch struct{ round, sock uint32 }

const untouched = math.MaxUint32

// TraceSimulate runs step B: per-phase migration decisions over the full
// workload trace, producing one checkpoint per phase.
func TraceSimulate(sys SystemConfig, cfg SimConfig, gen AccessSource) (*TraceResult, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	topo := topology.New(sys.Topology)
	sockets := topo.Sockets()
	pages := gen.NumPages()

	home := make([]topology.NodeID, pages)
	for i := range home {
		home[i] = Unassigned
	}

	tbl := tracker.NewTable(cfg.Tracker, pages, cfg.RegionPages)
	// Software sampling fills the table with the sampled regions only.
	var sampler *tracker.Sampler
	var sampled func(region int) bool
	if cfg.SoftwareTracking.Enable {
		sampler = tracker.NewSampler(tbl, cfg.SoftwareTracking.SampleFrac, gen.Spec().Seed)
		sampled = sampler.Sampled
	}
	counts := migrate.NewPageCounts(pages, sockets)
	totals := migrate.NewPageCounts(pages, sockets)

	st := &migrate.State{
		PageHome: home,
		Tracker:  tbl,
		Counts:   counts,
		Sockets:  sockets,
		HasPool:  topo.HasPool(),
		PoolNode: topo.PoolNode(),
	}
	if topo.HasPool() {
		st.PoolCapacityPages = sys.Pool.CapacityPages(pages)
	}

	sched := fault.NewSchedule(cfg.Faults)
	spec := gen.Spec()
	// The workload's expected access rate: mean region accesses per
	// phase, Config.AutoScale's input for zero-threshold configs.
	phaseAccesses := float64(gen.NumCores()) * float64(cfg.PhaseInstr) * spec.MPKI / 1000

	// The policy observes the world through its environment: static
	// system shape, the previous phase's placement feedback, and the
	// fault schedule's link-health outlook.
	var lastFB migrate.PhaseFeedback
	env := migrate.PolicyEnv{
		Sockets:                    sockets,
		HasPool:                    topo.HasPool(),
		PoolNode:                   topo.PoolNode(),
		PoolCapacityPages:          st.PoolCapacityPages,
		Pages:                      pages,
		NumRegions:                 tbl.NumRegions(),
		RegionPages:                tbl.RegionPages(),
		TrackerKind:                tbl.Kind(),
		MeanRegionAccessesPerPhase: phaseAccesses / float64(tbl.NumRegions()),
		Seed:                       cfg.Migration.Seed,
		WorkloadSeed:               int64(spec.Seed),
		BaseMigration:              cfg.Migration,
		Replication:                cfg.Replication,
		Link: func(phase int) migrate.LinkHealth {
			return linkHealth(sched, sys, topo, phase)
		},
		Feedback: func() migrate.PhaseFeedback { return lastFB },
	}
	policyName := cfg.Policy.CanonicalName()
	policy, err := migrate.NewPolicy(policyName, cfg.Policy.Params, env)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	res := &TraceResult{Totals: totals}
	var reg *metrics.Registry
	if cfg.CollectMetrics {
		reg = metrics.New()
	}
	if cfg.Trace {
		res.Trace = evtrace.NewBuffer()
		st.Trace = res.Trace
	}

	// Checkpoint 0: nothing placed yet, no in-flight migrations; pages
	// are first-touched during the phase itself.
	snap0 := make([]topology.NodeID, pages)
	copy(snap0, home)
	res.Checkpoints = append(res.Checkpoints, Checkpoint{Phase: 0, PageHome: snap0})

	for phase := 0; phase < cfg.Phases; phase++ {
		if sampler != nil {
			sampler.ResetPhase(phase)
		} else {
			tbl.Reset()
		}
		ingestPhase(gen, phase, cfg, home, counts)
		counts.FoldInto(tbl, sampled)
		counts.AddInto(totals)
		lastFB = migrate.ComputeFeedback(phase, counts, home, topo.HasPool(), topo.PoolNode())
		if reg != nil {
			reg.Point("migrate/policy/"+policyName+"/remote_frac", int64(phase), lastFB.RemoteFrac)
			reg.Point("migrate/policy/"+policyName+"/pool_frac", int64(phase), lastFB.PoolFrac)
		}
		if res.Trace != nil {
			// One span per trace phase on the phase-index clock: tick
			// `phase` to tick `phase+1` (a Dur of 1 tick).
			res.Trace.Span("phase", "phase "+strconv.Itoa(phase), "stepB", sim.Time(phase), 1)
		}

		if phase+1 >= cfg.Phases {
			break // no decision needed after the final phase
		}
		// Decisions made now are modeled during phase+1's timing window,
		// so their events anchor at that window's start.
		st.BeginTracePhase(sim.Time(phase + 1))
		// Snapshot the end-of-phase placement, then let the policy decide
		// the migrations that will occur *during* the next phase (§IV-A2:
		// "the N-th checkpoint indicates the set of migrations that must
		// be modeled during phase P_N's simulation"). Decide mutates
		// `home` so subsequent trace phases see the post-migration state.
		snap := make([]topology.NodeID, pages)
		copy(snap, home)
		// Fault reaction precedes the policy: recompute the pool's
		// degraded capacity for the upcoming phase, drain the overflow
		// (everything, when the device dies), and only then let the
		// policy decide — with HasPool off when no capacity remains, so
		// it degenerates to socket-only StarNUMA-Halt behaviour.
		var drained []migrate.Migration
		if topo.HasPool() && sched != nil {
			ps := sched.Pool(phase+1, sys.Pool.Channels)
			capPages := sys.Pool.DegradedCapacityPages(pages, ps)
			st.HasPool = true
			drained = migrate.DrainPool(st, capPages)
			st.PoolCapacityPages = capPages
			st.HasPool = capPages > 0
			res.DrainedPages += uint64(len(drained))
			if reg != nil {
				reg.Point("fault/drained_pages", int64(phase), float64(len(drained)))
			}
		}
		before := policy.Stats()
		pending := policy.Decide(phase, st)
		if len(drained) > 0 {
			// Drains go first so the timing window models the drain
			// traffic within its migration share.
			pending = append(drained, pending...)
		}
		if res.Trace != nil {
			after := policy.Stats()
			res.Trace.InstantArgs("migrate", "decide", "stepB/decide", sim.Time(phase+1),
				evtrace.Arg{Key: "migrations", Val: strconv.Itoa(len(pending))},
				evtrace.Arg{Key: "drained", Val: strconv.Itoa(len(drained))},
				evtrace.Arg{Key: "pingpong_skips", Val: strconv.FormatUint(after.PingPongSkips-before.PingPongSkips, 10)})
		}
		if reg != nil {
			after := policy.Stats()
			t := int64(phase)
			reg.Point("migrate/migrations", t, float64(len(pending)))
			reg.Point("migrate/policy/"+policyName+"/migrations", t, float64(len(pending)))
			reg.Point("migrate/pingpong_skips", t, float64(after.PingPongSkips-before.PingPongSkips))
			reg.Point("migrate/evictions", t, float64(after.Evictions-before.Evictions))
			if topo.HasPool() {
				resident := 0
				for _, h := range home {
					if h == topo.PoolNode() {
						resident++
					}
				}
				reg.Point("pool/resident_pages", t, float64(resident))
			}
		}
		res.Checkpoints = append(res.Checkpoints, Checkpoint{
			Phase:      phase + 1,
			PageHome:   snap,
			Migrations: pending,
		})
	}

	res.FinalHome = home
	// A post-placing policy (the zero-cost oracle) replaces every
	// checkpoint's placement with its whole-run computation and drops the
	// dynamic migrations — §V-B's static placement studies as a policy.
	if pp, ok := policy.(migrate.PostPlacer); ok {
		placement := pp.PostPlace(totals)
		for i := range res.Checkpoints {
			res.Checkpoints[i].PageHome = placement
			res.Checkpoints[i].Migrations = nil
		}
		res.FinalHome = placement
	}
	if cfg.Replication.Enable {
		res.Replicated = migrate.ReplicationSet(totals, cfg.Replication)
	} else if rp, ok := policy.(migrate.Replicator); ok {
		// A replicating policy selected its own replica set during the
		// run; its timing model rides along for step C.
		if set := rp.ReplicatedSet(); set != nil {
			res.Replicated = set
			model := rp.ReplicationModel()
			res.ReplModel = &model
		}
	}
	res.TrackerFlushes = tbl.Flushes()
	res.MigrStats = policy.Stats()
	if reg != nil {
		reg.Add("tracker/flushes", res.TrackerFlushes)
		reg.Add("migrate/pages_to_pool", res.MigrStats.PagesToPool)
		reg.Add("migrate/pages_to_socket", res.MigrStats.PagesToSocket)
		reg.Add("migrate/pingpong_skips", res.MigrStats.PingPongSkips)
		reg.Add("migrate/evictions", res.MigrStats.Evictions)
		reg.Add("migrate/policy/"+policyName+"/pages_to_pool", res.MigrStats.PagesToPool)
		reg.Add("migrate/policy/"+policyName+"/pages_to_socket", res.MigrStats.PagesToSocket)
		reg.Add("migrate/policy/"+policyName+"/evictions", res.MigrStats.Evictions)
		reg.Add("migrate/policy/"+policyName+"/pingpong_skips", res.MigrStats.PingPongSkips)
		reg.Add("migrate/policy/"+policyName+"/link_backoff_phases", res.MigrStats.LinkBackoffPhases)
		if res.Replicated != nil {
			n := uint64(0)
			for _, r := range res.Replicated {
				if r {
					n++
				}
			}
			reg.Add("migrate/policy/"+policyName+"/replicated_pages", n)
		}
		if sched != nil {
			reg.Add("fault/drained_pages", res.DrainedPages)
		}
		res.Metrics = reg.Snapshot()
	}
	return res, nil
}

// linkHealth summarises the fault outlook for the policy-relevant link
// class during one phase — the pool's CXL path when a pool exists, the
// socket interconnect otherwise. This is the PolicyEnv.Link signal
// bandwidth-aware policies consult before committing pool placements.
func linkHealth(sched *fault.Schedule, sys SystemConfig, topo *topology.Topology, phase int) migrate.LinkHealth {
	kind := topology.KindUPI
	if topo.HasPool() {
		kind = topology.KindCXL
	}
	o := sched.Outlook(kind.String(), phase)
	h := migrate.LinkHealth{
		LatencyX:     o.LatencyX,
		BandwidthDiv: o.BandwidthDiv,
		DownFrac:     o.DownFrac,
	}
	if topo.HasPool() {
		ps := sched.Pool(phase, sys.Pool.Channels)
		h.PoolDead = ps.Dead
		h.PoolCapacityFrac = ps.CapacityFrac
	}
	return h
}
