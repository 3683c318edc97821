package core

import (
	"slices"
	"testing"

	"starnuma/internal/cache"
	"starnuma/internal/migrate"
	"starnuma/internal/sim"
	"starnuma/internal/stats"
	"starnuma/internal/topology"
	"starnuma/internal/tracker"
	"starnuma/internal/workload"
)

// tinySim returns a configuration small enough for unit tests.
func tinySim() SimConfig {
	c := DefaultSim()
	c.Phases = 2
	c.PhaseInstr = 200_000
	c.TimedInstr = 20_000
	c.WarmupInstr = 2_000
	return c
}

func tinySpec(t *testing.T, name string) workload.Spec {
	t.Helper()
	spec, err := workload.ByName(name, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestPolicySpecString(t *testing.T) {
	if PolicyStarNUMA.String() != "starnuma" ||
		PolicyPerfectBaseline.String() != "baseline-perfect" ||
		PolicyNone.String() != "none" ||
		(PolicySpec{}).String() != "starnuma" {
		t.Fatal("PolicySpec.String wrong")
	}
	if (PolicySpec{Name: "oracle"}).Tag() != "oracle" {
		t.Fatal("parameterless Tag should be the bare name")
	}
	withParams := PolicySpec{Name: "oracle", Params: migrate.Params{"pool_sharer_threshold": 4}}
	tag := withParams.Tag()
	if len(tag) != len("oracle")+1+8 || tag[:7] != "oracle-" {
		t.Fatalf("parameterised Tag = %q, want oracle-<8 hex>", tag)
	}
	if tag != withParams.Tag() {
		t.Fatal("Tag must be deterministic")
	}
}

func TestSystemConfigValidate(t *testing.T) {
	if err := BaselineSystem().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := StarNUMASystem().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := SingleSocketSystem().Validate(); err != nil {
		t.Fatal(err)
	}
	mods := []func(*SystemConfig){
		func(c *SystemConfig) { c.Topology.Sockets = 0 },
		func(c *SystemConfig) { c.UPIBandwidth = -1 },
		func(c *SystemConfig) { c.NUMABandwidth = -1 },
		func(c *SystemConfig) { c.LLCBytes = 0 },
		func(c *SystemConfig) { c.LLCWays = 0 },
		func(c *SystemConfig) { c.LLCWays = cache.MaxWays + 1 },
		func(c *SystemConfig) { c.CoresPerSocket = 0 },
		func(c *SystemConfig) { c.ClockGHz = 0 },
		func(c *SystemConfig) { c.MessageBytes = 0 },
		func(c *SystemConfig) { c.DataBytes = 0 },
		func(c *SystemConfig) { c.Pool.Channels = 0 }, // pool is validated on StarNUMA
	}
	for i, mod := range mods {
		c := StarNUMASystem()
		mod(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid system accepted", i)
		}
	}
}

func TestSimConfigValidate(t *testing.T) {
	if err := DefaultSim().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := QuickSim().Validate(); err != nil {
		t.Fatal(err)
	}
	mods := []func(*SimConfig){
		func(c *SimConfig) { c.Phases = 0 },
		func(c *SimConfig) { c.PhaseInstr = 0 },
		func(c *SimConfig) { c.TimedInstr = 0 },
		func(c *SimConfig) { c.TimedInstr = c.PhaseInstr + 1 },
		func(c *SimConfig) { c.WarmupInstr = c.TimedInstr },
		func(c *SimConfig) { c.RegionPages = 0 },
		func(c *SimConfig) { c.MigrationCostCycles = -1 },
	}
	for i, mod := range mods {
		c := DefaultSim()
		mod(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid sim config accepted", i)
		}
	}
}

func TestStarNUMASystemWiresPoolLatency(t *testing.T) {
	s := StarNUMASystem()
	if !s.Topology.HasPool {
		t.Fatal("no pool")
	}
	if s.Topology.CXLOneWay != 50*sim.Nanosecond {
		t.Fatalf("CXL one-way = %v", s.Topology.CXLOneWay)
	}
}

func TestUnloadedLatenciesMatchPaper(t *testing.T) {
	topo := topology.New(StarNUMASystem().Topology)
	lat := unloadedLatencies(topo, 80*sim.Nanosecond)
	if lat[stats.Local] != 80*sim.Nanosecond ||
		lat[stats.OneHop] != 130*sim.Nanosecond ||
		lat[stats.TwoHop] != 360*sim.Nanosecond ||
		lat[stats.Pool] != 180*sim.Nanosecond ||
		lat[stats.BTPool] != 280*sim.Nanosecond {
		t.Fatalf("unloaded latencies = %v", lat)
	}
	// BT_Socket averages ~333+80ns over R,H,O combinations (Fig. 4).
	bts := lat[stats.BTSocket].Nanos()
	if bts < 380 || bts < 80 || bts > 445 {
		t.Fatalf("BT_Socket unloaded = %vns, want ~413ns", bts)
	}
}

func TestTraceSimulateCheckpointInvariants(t *testing.T) {
	spec := tinySpec(t, "BFS")
	sys := StarNUMASystem()
	cfg := tinySim()
	cfg.Phases = 3
	topo := topology.New(sys.Topology)
	gen, err := workload.NewGenerator(spec, topo.Sockets(), sys.CoresPerSocket)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := TraceSimulate(sys, cfg, gen)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Checkpoints) != cfg.Phases {
		t.Fatalf("checkpoints = %d, want %d", len(tr.Checkpoints), cfg.Phases)
	}
	// Checkpoint 0 must be entirely unassigned, later ones mostly
	// assigned; migrations must move pages consistently with the maps.
	for _, h := range tr.Checkpoints[0].PageHome {
		if h != Unassigned {
			t.Fatal("checkpoint 0 has assigned pages")
		}
	}
	if len(tr.Checkpoints[0].Migrations) != 0 {
		t.Fatal("checkpoint 0 has migrations")
	}
	for i := 1; i < len(tr.Checkpoints); i++ {
		chk := tr.Checkpoints[i]
		if chk.Phase != i {
			t.Fatalf("checkpoint %d has phase %d", i, chk.Phase)
		}
		for _, m := range chk.Migrations {
			if chk.PageHome[m.Page] != m.From {
				t.Fatalf("migration %+v inconsistent with start map (home=%v)",
					m, chk.PageHome[m.Page])
			}
			if m.From == m.To {
				t.Fatalf("no-op migration %+v", m)
			}
		}
	}
	// The final map must equal the last checkpoint's map with its
	// migrations applied, modulo first touches in the last phase.
	last := tr.Checkpoints[len(tr.Checkpoints)-1]
	after := make([]topology.NodeID, len(last.PageHome))
	copy(after, last.PageHome)
	for _, m := range last.Migrations {
		after[m.Page] = m.To
	}
	for pg, h := range tr.FinalHome {
		if after[pg] != Unassigned && h != after[pg] {
			t.Fatalf("page %d: final home %v != checkpoint-projected %v", pg, h, after[pg])
		}
	}
}

func TestTraceSimulateFirstTouchIsLocal(t *testing.T) {
	// POA is fully private: after first touch every page must be homed at
	// its single sharer's socket and no migrations must occur.
	spec := tinySpec(t, "POA")
	sys := BaselineSystem()
	cfg := tinySim()
	topo := topology.New(sys.Topology)
	gen, err := workload.NewGenerator(spec, topo.Sockets(), sys.CoresPerSocket)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := TraceSimulate(sys, cfg, gen)
	if err != nil {
		t.Fatal(err)
	}
	for i, chk := range tr.Checkpoints {
		if len(chk.Migrations) != 0 {
			t.Fatalf("checkpoint %d has %d migrations for POA", i, len(chk.Migrations))
		}
	}
	for pg, h := range tr.FinalHome {
		if h == Unassigned {
			continue
		}
		sh := gen.Sharers(uint32(pg))
		if len(sh) != 1 || topology.NodeID(sh[0]) != h {
			t.Fatalf("page %d homed at %v, sharers %v", pg, h, sh)
		}
	}
}

func TestRunPOAIsNUMAInsensitive(t *testing.T) {
	spec := tinySpec(t, "POA")
	r, err := Run(StarNUMASystem(), tinySim(), spec)
	if err != nil {
		t.Fatal(err)
	}
	fr := r.AMAT.Breakdown().Fractions()
	if fr[stats.Local] < 0.999 {
		t.Fatalf("POA local fraction = %v, want ~1.0 (§V-A)", fr[stats.Local])
	}
	if r.PoolPages != 0 {
		t.Fatalf("POA pooled %d pages", r.PoolPages)
	}
	if r.MigrStats.PagesToPool != 0 {
		t.Fatal("POA migrated to pool")
	}
	if r.AMAT.Measured() < 80*sim.Nanosecond || r.AMAT.Measured() > 120*sim.Nanosecond {
		t.Fatalf("POA AMAT = %v, want ~80-120ns", r.AMAT.Measured())
	}
}

func TestRunDeterminism(t *testing.T) {
	spec := tinySpec(t, "CC")
	cfg := tinySim()
	r1, err := Run(StarNUMASystem(), cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	ResetWindowMemo() // simulate the windows again, not recall them
	r2, err := Run(StarNUMASystem(), cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if r1.IPC != r2.IPC || r1.AMAT.Measured() != r2.AMAT.Measured() ||
		r1.Misses != r2.Misses || r1.PoolPages != r2.PoolPages {
		t.Fatalf("non-deterministic: %+v vs %+v", r1, r2)
	}
}

func TestRunStarNUMABeatsBaselineOnBFS(t *testing.T) {
	spec := tinySpec(t, "BFS")
	cfg := tinySim()
	cfg.Phases = 3
	base := cfg
	base.Policy = PolicyPerfectBaseline
	rb, err := Run(BaselineSystem(), base, spec)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Run(StarNUMASystem(), cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if sp := Speedup(rs, rb); sp < 1.2 {
		t.Fatalf("BFS speedup = %v, want > 1.2 (paper: ~1.7)", sp)
	}
	if rs.AMAT.Measured() >= rb.AMAT.Measured() {
		t.Fatalf("StarNUMA AMAT %v not below baseline %v",
			rs.AMAT.Measured(), rb.AMAT.Measured())
	}
	// Pool accesses must appear in the breakdown, and only on StarNUMA.
	if rs.AMAT.Breakdown()[stats.Pool] == 0 {
		t.Fatal("no pool accesses in StarNUMA run")
	}
	if rb.AMAT.Breakdown()[stats.Pool] != 0 || rb.AMAT.Breakdown()[stats.BTPool] != 0 {
		t.Fatal("pool accesses in baseline run")
	}
}

func TestRunSingleSocketIPCApproachesTable3(t *testing.T) {
	// The single-socket configuration should roughly recover the
	// published single-socket IPC, since ZeroLoadIPC inverts the same
	// model.
	for _, name := range []string{"TC", "FMI", "POA"} {
		spec := tinySpec(t, name)
		r, err := Run(SingleSocketSystem(), tinySim(), spec)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := spec.SingleSocketIPC*0.6, spec.SingleSocketIPC*1.5
		if r.IPC < lo || r.IPC > hi {
			t.Errorf("%s single-socket IPC = %.3f, want within [%.3f, %.3f] of Table III's %.2f",
				name, r.IPC, lo, hi, spec.SingleSocketIPC)
		}
		fr := r.AMAT.Breakdown().Fractions()
		if fr[stats.Local] < 0.999 {
			t.Errorf("%s single-socket local fraction = %v", name, fr[stats.Local])
		}
	}
}

func TestRunMeasuredMPKIMatchesSpec(t *testing.T) {
	spec := tinySpec(t, "Masstree")
	r, err := Run(StarNUMASystem(), tinySim(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if r.MPKI < spec.MPKI*0.85 || r.MPKI > spec.MPKI*1.15 {
		t.Fatalf("measured MPKI = %v, spec %v", r.MPKI, spec.MPKI)
	}
}

func TestRunStaticOracle(t *testing.T) {
	spec := tinySpec(t, "BFS")
	cfg := tinySim()
	cfg.Policy = PolicyOracle
	sys := StarNUMASystem()
	r, err := Run(sys, cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Static placement performs no migrations but still pools pages.
	if r.MigrStats.PagesToPool != 0 || r.MigrStats.PagesToSocket != 0 {
		t.Fatalf("static oracle migrated: %+v", r.MigrStats)
	}
	if r.PoolPages == 0 {
		t.Fatal("static oracle pooled nothing")
	}
	if r.AMAT.Breakdown()[stats.Pool] == 0 {
		t.Fatal("no pool accesses under static oracle")
	}
	if r.MigrStalledAccesses != 0 {
		t.Fatal("static oracle stalled accesses on migrations")
	}

	// Every checkpoint carries §V-B's placement: StaticOraclePlacement
	// over the whole-run totals with the pool's undegraded capacity, a
	// sharer threshold of 8 and the workload's seed — and no migrations.
	// The fake source leaves most pages untouched, so the seed that
	// places them is pinned too (the suite's workloads touch every page).
	topo := topology.New(sys.Topology)
	gen, err := workload.NewGenerator(spec, topo.Sockets(), sys.CoresPerSocket)
	if err != nil {
		t.Fatal(err)
	}
	fake := newFakeSource(256, func(core int) uint32 { return uint32(core % 8) })
	for _, src := range []AccessSource{gen, fake} {
		plan, err := NewPlan(sys, cfg, src)
		if err != nil {
			t.Fatal(err)
		}
		want := migrate.StaticOraclePlacement(plan.Trace().Totals, migrate.StaticOracleConfig{
			Sockets:             topo.Sockets(),
			HasPool:             true,
			PoolNode:            topo.PoolNode(),
			PoolCapacityPages:   sys.Pool.CapacityPages(src.NumPages()),
			PoolSharerThreshold: 8,
			Seed:                int64(src.Spec().Seed),
		})
		for i := 0; i < plan.NumWindows(); i++ {
			chk := plan.Checkpoint(i)
			if len(chk.Migrations) != 0 {
				t.Fatalf("%s: checkpoint %d carries %d migrations", src.Spec().Name, i, len(chk.Migrations))
			}
			if !slices.Equal(chk.PageHome, want) {
				t.Fatalf("%s: checkpoint %d placement differs from StaticOraclePlacement", src.Spec().Name, i)
			}
		}
		if plan.Trace().MigrStats != (migrate.Stats{}) {
			t.Fatalf("%s: oracle reported migration stats %+v", src.Spec().Name, plan.Trace().MigrStats)
		}
	}
}

func TestRunT0CapturesMostOfT16(t *testing.T) {
	spec := tinySpec(t, "BFS")
	cfg := tinySim()
	cfg.Phases = 3
	r16, err := Run(StarNUMASystem(), cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Tracker = tracker.T0
	r0, err := Run(StarNUMASystem(), cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if r0.AMAT.Breakdown()[stats.Pool] == 0 {
		t.Fatal("T0 placed nothing in the pool")
	}
	// T0 captures most of T16's benefit (Fig. 8a: 1.35x vs 1.54x).
	if r0.IPC < 0.5*r16.IPC {
		t.Fatalf("T0 IPC %v far below T16 %v", r0.IPC, r16.IPC)
	}
}

func TestRunBaselinePolicyIgnoresPool(t *testing.T) {
	spec := tinySpec(t, "BFS")
	cfg := tinySim()
	cfg.Policy = PolicyPerfectBaseline
	// Even on a pool-equipped system, the perfect baseline policy never
	// targets the pool.
	r, err := Run(StarNUMASystem(), cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if r.MigrStats.PagesToPool != 0 {
		t.Fatal("baseline policy migrated to pool")
	}
}

func TestRunRejectsInvalidConfigs(t *testing.T) {
	spec := tinySpec(t, "BFS")
	bad := BaselineSystem()
	bad.ClockGHz = 0
	if _, err := Run(bad, tinySim(), spec); err == nil {
		t.Fatal("invalid system accepted")
	}
	cfg := tinySim()
	cfg.Phases = 0
	if _, err := Run(BaselineSystem(), cfg, spec); err == nil {
		t.Fatal("invalid sim config accepted")
	}
	if _, err := Run(BaselineSystem(), tinySim(), workload.Spec{}); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

func TestSpeedupAndCoherenceInterval(t *testing.T) {
	a := &Result{IPC: 1.5}
	b := &Result{IPC: 1.0}
	if Speedup(a, b) != 1.5 {
		t.Fatal("Speedup wrong")
	}
	if Speedup(a, &Result{}) != 0 {
		t.Fatal("Speedup by zero")
	}
	r := &Result{SimulatedTime: 1000 * sim.Nanosecond}
	r.Dir.Transactions = 10
	if r.CoherenceTxnIntervalNS() != 100 {
		t.Fatal("txn interval wrong")
	}
	if (&Result{}).CoherenceTxnIntervalNS() != 0 {
		t.Fatal("empty txn interval")
	}
}

func TestGapTime(t *testing.T) {
	// 100 instructions at IPC 2 and 2.4GHz: 50 cycles = 20833ps.
	got := gapTime(100, 2, 1000.0/2.4)
	if got < 20833 || got > 20834 {
		t.Fatalf("gapTime = %v", got)
	}
}

func TestRunMigrationStallsObserved(t *testing.T) {
	// Masstree migrates its entire shared space toward the pool; some
	// accesses must catch pages mid-migration.
	spec := tinySpec(t, "Masstree")
	cfg := tinySim()
	cfg.Phases = 3
	r, err := Run(StarNUMASystem(), cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if r.MigrStats.PagesToPool == 0 {
		t.Fatal("no pool migrations for Masstree")
	}
	if r.MigrStalledAccesses == 0 {
		t.Log("warning: no migration stalls observed (timing-dependent)")
	}
}

func TestTLBModelingObservesShootdowns(t *testing.T) {
	spec := tinySpec(t, "Masstree") // migrates heavily
	cfg := tinySim()
	cfg.Phases = 3
	r, err := Run(StarNUMASystem(), cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if r.TLB.Walks == 0 || r.TLB.Hits == 0 {
		t.Fatalf("TLB inactive: %+v", r.TLB)
	}
	if r.TLB.Shootdowns == 0 {
		t.Fatalf("no shootdowns despite migrations: %+v", r.TLB)
	}
	// The shared directory must target far fewer cores than a broadcast
	// (64 cores x shootdowns).
	if r.TLB.ShootdownTargets >= r.TLB.Shootdowns*64 {
		t.Fatalf("shootdowns look like broadcasts: %+v", r.TLB)
	}
}

func TestTLBModelingCanBeDisabled(t *testing.T) {
	spec := tinySpec(t, "CC")
	cfg := tinySim()
	cfg.ModelTLB = false
	r, err := Run(StarNUMASystem(), cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if r.TLB.Walks != 0 || r.TLB.Shootdowns != 0 {
		t.Fatalf("TLB stats with modelling disabled: %+v", r.TLB)
	}
}

func TestRunSourceValidatesCoreCount(t *testing.T) {
	spec := tinySpec(t, "CC")
	gen, err := workload.NewGenerator(spec, 8, 4) // wrong shape for 16-socket system
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunSource(BaselineSystem(), tinySim(), gen); err == nil {
		t.Fatal("accepted core-count mismatch")
	}
}

func TestReplicationStudy(t *testing.T) {
	spec := tinySpec(t, "TC") // read-only sharing: the favourable case
	cfg := tinySim()
	cfg.Policy = PolicyPerfectBaseline
	base, err := Run(BaselineSystem(), cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Replication = migrate.DefaultReplicationConfig()
	cfg.Replication.Enable = true
	repl, err := Run(BaselineSystem(), cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if repl.ReplicatedPages == 0 {
		t.Fatal("TC replicated no pages despite read-only sharing")
	}
	if repl.ReplicaReads == 0 {
		t.Fatal("no replica reads observed")
	}
	if repl.IPC <= base.IPC {
		t.Fatalf("replication did not help read-only TC: %v vs %v", repl.IPC, base.IPC)
	}
	// Replica reads are local.
	fr := repl.AMAT.Breakdown().Fractions()
	bfr := base.AMAT.Breakdown().Fractions()
	if fr[stats.Local] <= bfr[stats.Local] {
		t.Fatalf("local fraction did not grow: %v vs %v", fr[stats.Local], bfr[stats.Local])
	}
}

func TestReplicationWritePenalty(t *testing.T) {
	spec := tinySpec(t, "Masstree") // 50/50 read-write: the hostile case
	cfg := tinySim()
	cfg.Policy = PolicyPerfectBaseline
	base, err := Run(BaselineSystem(), cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Replication = migrate.DefaultReplicationConfig()
	cfg.Replication.Enable = true
	cfg.Replication.MaxWriteFrac = 1.0 // naive: replicate read-write pages too
	repl, err := Run(BaselineSystem(), cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if repl.ReplicaWriteStalls == 0 {
		t.Fatal("no write stalls on a 50/50 write workload")
	}
	if repl.IPC >= base.IPC {
		t.Fatalf("naive replication should hurt Masstree: %v vs %v (§V-F)", repl.IPC, base.IPC)
	}
}

func TestReplicationConfigValidation(t *testing.T) {
	cfg := tinySim()
	cfg.Replication = migrate.DefaultReplicationConfig()
	cfg.Replication.Enable = true
	cfg.Replication.CapacityFrac = 0
	if err := cfg.Validate(); err == nil {
		t.Fatal("invalid replication config accepted")
	}
	cfg.Replication.Enable = false
	if err := cfg.Validate(); err != nil {
		t.Fatalf("disabled replication should skip validation: %v", err)
	}
}

func TestThirtyTwoSocketSystem(t *testing.T) {
	spec := tinySpec(t, "BFS")
	cfg := tinySim()
	sys := StarNUMASystem()
	sys.Topology.Sockets = 32
	cfg.Migration.PoolSharerThreshold = 16
	r, err := Run(sys, cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if r.IPC <= 0 {
		t.Fatalf("32-socket IPC = %v", r.IPC)
	}
	if r.AMAT.Breakdown()[stats.Pool] == 0 {
		t.Fatal("no pool accesses at 32 sockets")
	}
}

func TestForceDirectBTAblation(t *testing.T) {
	spec := tinySpec(t, "Masstree") // write-heavy shared pages: many BTs
	cfg := tinySim()
	cfg.Phases = 3
	normal, err := Run(StarNUMASystem(), cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ForceDirectBT = true
	direct, err := Run(StarNUMASystem(), cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	// With the ablation, pool-home transfers are classified as direct
	// socket transfers.
	if direct.AMAT.Breakdown()[stats.BTPool] != 0 {
		t.Fatal("ForceDirectBT still produced 4-hop transfers")
	}
	if normal.AMAT.Breakdown()[stats.BTPool] == 0 {
		t.Skip("no pool-home transfers in this configuration")
	}
}

// TestFirstTouchKeepsPrivatePagesLocal pins §V-A's observation: POA's
// pages each have a single accessor, so first touch alone homes every
// access locally.
func TestFirstTouchKeepsPrivatePagesLocal(t *testing.T) {
	cfg := tinySim()
	cfg.Policy = PolicyNone
	r, err := Run(BaselineSystem(), cfg, tinySpec(t, "POA"))
	if err != nil {
		t.Fatal(err)
	}
	if fr := r.AMAT.Breakdown().Fractions(); fr[stats.Local] < 0.999 {
		t.Fatalf("first-touch POA local = %v", fr[stats.Local])
	}
}

func TestSoftwareTrackingStudy(t *testing.T) {
	spec := tinySpec(t, "BFS")
	cfg := tinySim()
	cfg.Phases = 3
	hw, err := Run(StarNUMASystem(), cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SoftwareTracking = DefaultSoftwareTracking()
	cfg.SoftwareTracking.Enable = true
	sw, err := Run(StarNUMASystem(), cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if sw.PageFaults == 0 {
		t.Fatal("software tracking took no faults")
	}
	if hw.PageFaults != 0 {
		t.Fatal("hardware tracking took faults")
	}
	// Sampling finds fewer pool candidates than full hardware tracking.
	if sw.MigrStats.PagesToPool >= hw.MigrStats.PagesToPool && hw.MigrStats.PagesToPool > 0 {
		t.Fatalf("5%% sample pooled %d pages vs hardware's %d",
			sw.MigrStats.PagesToPool, hw.MigrStats.PagesToPool)
	}
}

func TestSoftwareTrackingValidation(t *testing.T) {
	cfg := tinySim()
	cfg.SoftwareTracking.Enable = true
	cfg.SoftwareTracking.SampleFrac = 0
	if err := cfg.Validate(); err == nil {
		t.Fatal("zero sample fraction accepted")
	}
	cfg.SoftwareTracking.SampleFrac = 0.5
	cfg.SoftwareTracking.FaultPenaltyCycles = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative fault penalty accepted")
	}
}
