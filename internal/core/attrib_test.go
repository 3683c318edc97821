package core

import (
	"encoding/json"
	"testing"

	"starnuma/internal/attrib"
	"starnuma/internal/fault"
	"starnuma/internal/migrate"
	"starnuma/internal/topology"
)

// attribSim is windowSim with the stall-attribution ledger enabled.
func attribSim() SimConfig {
	c := windowSim()
	c.Attrib = true
	return c
}

// checkConserved asserts the window carries a profile whose cells sum
// exactly — integer equality, no tolerance — to the window's recorded
// stall total, and returns it for category assertions.
func checkConserved(t *testing.T, w windowStats) *attrib.WindowProfile {
	t.Helper()
	if w.prof == nil {
		t.Fatal("no window profile with Attrib on")
	}
	want := int64(w.amat.SumLatency())
	if w.prof.TotalPS != want {
		t.Fatalf("profile total %d ps, AMAT stall total %d ps", w.prof.TotalPS, want)
	}
	if got := w.prof.Sum(); got != want {
		t.Fatalf("conservation violated: cells sum to %d ps, stall total %d ps (off by %d)",
			got, want, got-want)
	}
	return w.prof
}

// catTotal sums one category across the profile's sockets.
func catTotal(p *attrib.WindowProfile, c attrib.Category) int64 {
	var s int64
	for i := int(c); i < len(p.Cells); i += int(attrib.NumCategories) {
		s += p.Cells[i]
	}
	return s
}

func TestAttribOffNoProfile(t *testing.T) {
	src := newFakeSource(16, func(core int) uint32 { return uint32(core / 4) })
	w := runWindow(BaselineSystem(), windowSim(), src, Checkpoint{PageHome: homesAll(16, 0)}, nil)
	if w.prof != nil {
		t.Fatal("window profile present with Attrib off")
	}
}

func TestAttribConservationLocal(t *testing.T) {
	// All-local traffic: only the memory categories may be charged.
	src := newFakeSource(16, func(core int) uint32 { return uint32(core / 4) })
	home := make([]topology.NodeID, 16)
	for i := range home {
		home[i] = topology.NodeID(i)
	}
	w := runWindow(BaselineSystem(), attribSim(), src, Checkpoint{PageHome: home}, nil)
	p := checkConserved(t, w)
	if catTotal(p, attrib.OnChip) == 0 || catTotal(p, attrib.DRAM) == 0 {
		t.Fatalf("local run missing memory charges: %v", p.Cells)
	}
	for _, c := range []attrib.Category{attrib.LinkProp, attrib.LinkQueue,
		attrib.CXLProp, attrib.CXLQueue, attrib.Coherence, attrib.Migration} {
		if got := catTotal(p, c); got != 0 {
			t.Fatalf("local run charged %v = %d ps", c, got)
		}
	}
}

func TestAttribConservationTwoHop(t *testing.T) {
	// Cross-chassis reads: socket-link propagation must dominate and CXL
	// categories stay empty (no pool in the baseline system).
	src := newFakeSource(16, func(core int) uint32 { return uint32(core/4) ^ 0xF })
	home := make([]topology.NodeID, 16)
	for i := range home {
		home[i] = topology.NodeID(i)
	}
	w := runWindow(BaselineSystem(), attribSim(), src, Checkpoint{PageHome: home}, nil)
	p := checkConserved(t, w)
	if catTotal(p, attrib.LinkProp) == 0 {
		t.Fatalf("two-hop run charged no link propagation: %v", p.Cells)
	}
	if catTotal(p, attrib.CXLProp)+catTotal(p, attrib.CXLQueue) != 0 {
		t.Fatalf("CXL charges without a pool: %v", p.Cells)
	}
}

func TestAttribConservationPool(t *testing.T) {
	// Pool-homed reads cross CXL links: cxl-prop must be charged.
	src := newFakeSource(16, func(core int) uint32 { return uint32(core % 16) })
	sys := StarNUMASystem()
	topo := topology.New(sys.Topology)
	w := runWindow(sys, attribSim(), src, Checkpoint{PageHome: homesAll(16, topo.PoolNode())}, nil)
	p := checkConserved(t, w)
	if catTotal(p, attrib.CXLProp) == 0 {
		t.Fatalf("pool run charged no CXL propagation: %v", p.Cells)
	}
}

func TestAttribConservationCoherence(t *testing.T) {
	// Write sharing forces block transfers, whose post-home legs charge
	// to the coherence category.
	src := newFakeSource(16, func(core int) uint32 { return 0 })
	src.writeEvery = 4
	w := runWindow(BaselineSystem(), attribSim(), src, Checkpoint{PageHome: homesAll(16, 3)}, nil)
	p := checkConserved(t, w)
	if catTotal(p, attrib.Coherence) == 0 {
		t.Fatalf("write sharing charged no coherence time: %v", p.Cells)
	}
}

func TestAttribConservationMigrationStall(t *testing.T) {
	// Accesses caught behind the in-flight page move charge the wait to
	// the migration category; the second move of the same hot page also
	// forces TLB shootdown walks on cores that already cached the
	// translation.
	src := newFakeSource(16, func(core int) uint32 { return 0 })
	cfg := attribSim()
	cfg.TimedInstr = cfg.PhaseInstr // model the full migration list
	cfg.WarmupInstr = 0             // the t=0 stall must be recorded
	chk := Checkpoint{
		PageHome: homesAll(16, 15),
		Migrations: []migrate.Migration{
			{Page: 0, From: 15, To: 0},
			{Page: 0, From: 0, To: 1},
			{Page: 0, From: 1, To: 2},
			{Page: 0, From: 2, To: 3},
		},
	}
	w := runWindow(BaselineSystem(), cfg, src, chk, nil)
	p := checkConserved(t, w)
	if w.migrStalled == 0 {
		t.Fatal("no accesses stalled behind migrations")
	}
	if catTotal(p, attrib.Migration) == 0 {
		t.Fatalf("migration stalls charged nothing: %v", p.Cells)
	}
	if catTotal(p, attrib.TLB) == 0 {
		t.Fatalf("shootdown walks charged nothing: %v", p.Cells)
	}
	if catTotal(p, attrib.Drain) != 0 {
		t.Fatalf("policy migrations charged as drain: %v", p.Cells)
	}
}

func TestAttribConservationDrain(t *testing.T) {
	// The same stall behind a move flagged Drain books to the drain
	// category instead of migration.
	src := newFakeSource(16, func(core int) uint32 { return 0 })
	cfg := attribSim()
	cfg.TimedInstr = cfg.PhaseInstr
	cfg.WarmupInstr = 0
	chk := Checkpoint{
		PageHome:   homesAll(16, 15),
		Migrations: []migrate.Migration{{Page: 0, From: 15, To: 0, Drain: true}},
	}
	w := runWindow(BaselineSystem(), cfg, src, chk, nil)
	p := checkConserved(t, w)
	if w.migrStalled == 0 {
		t.Fatal("no accesses stalled behind the drain")
	}
	if catTotal(p, attrib.Drain) == 0 {
		t.Fatalf("drain stalls charged nothing: %v", p.Cells)
	}
	if catTotal(p, attrib.Migration) != 0 {
		t.Fatalf("drain stalls leaked into migration: %v", p.Cells)
	}
}

func TestAttribConservationSoftwareTracking(t *testing.T) {
	// Pages first touched after warm-up fault under software tracking;
	// the minor-fault penalty books under the TLB category.
	var src *fakeSource
	src = newFakeSource(32, func(core int) uint32 {
		if src.n[core] > 10 {
			return uint32(16 + core/4)
		}
		return uint32(core / 4)
	})
	cfg := attribSim()
	cfg.SoftwareTracking = SoftwareTrackingConfig{Enable: true, SampleFrac: 1, FaultPenaltyCycles: 3000}
	w := runWindow(BaselineSystem(), cfg, src, Checkpoint{PageHome: homesAll(32, 0)}, nil)
	p := checkConserved(t, w)
	if w.pageFaults == 0 {
		t.Fatal("software tracking took no page faults")
	}
	if catTotal(p, attrib.TLB) == 0 {
		t.Fatalf("minor faults charged nothing: %v", p.Cells)
	}
}

func TestAttribConservationReplication(t *testing.T) {
	// Stores to a replicated page pay the software coherence penalty,
	// charged to the replication category.
	src := newFakeSource(16, func(core int) uint32 { return 0 })
	src.writeEvery = 4
	cfg := attribSim()
	cfg.Replication.WritePenaltyCycles = 5000
	replicated := make([]bool, 16)
	replicated[0] = true
	w := runWindow(BaselineSystem(), cfg, src, Checkpoint{PageHome: homesAll(16, 3)}, replicated)
	p := checkConserved(t, w)
	if w.replicaWriteStalls == 0 {
		t.Fatal("no replica write stalls")
	}
	if catTotal(p, attrib.Replication) == 0 {
		t.Fatalf("replica writes charged nothing: %v", p.Cells)
	}
}

func TestAttribConservationFaultRetry(t *testing.T) {
	// A flapping CXL port delays demand sends by retrain/backoff time,
	// charged to fault-retry. FlapPlan starts at phase 1.
	src := newFakeSource(16, func(core int) uint32 { return uint32(core % 16) })
	sys := StarNUMASystem()
	topo := topology.New(sys.Topology)
	cfg := attribSim()
	cfg.Faults = fault.FlapPlan()
	chk := Checkpoint{Phase: 1, PageHome: homesAll(16, topo.PoolNode())}
	w := runWindow(sys, cfg, src, chk, nil)
	p := checkConserved(t, w)
	if w.faultRetries == 0 {
		t.Fatal("flap plan produced no retries")
	}
	if catTotal(p, attrib.FaultRetry) == 0 {
		t.Fatalf("flap retries charged nothing: %v", p.Cells)
	}
}

func TestAttribDifferentialResultJSON(t *testing.T) {
	// Attribution must be passive: with the profile stripped, an
	// attribution-on Result encodes byte-identically to attribution-off.
	// The second input drives the replica legs, and page moves and
	// migration stalls over degraded CXL links.
	replDegrade := tinySim()
	replDegrade.Policy = PolicySpec{Name: "replication", Params: migrate.Params{"hot_accesses": 8, "min_sharers": 4}}
	replDegrade.Faults = fault.DegradePlan(2)
	for _, tc := range []struct {
		name string
		cfg  SimConfig
	}{
		{"starnuma", tinySim()},
		{"replication-degrade", replDegrade},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := tinySpec(t, "CC")
			off, err := Run(StarNUMASystem(), tc.cfg, spec)
			if err != nil {
				t.Fatal(err)
			}
			cfgOn := tc.cfg
			cfgOn.Attrib = true
			on, err := Run(StarNUMASystem(), cfgOn, spec)
			if err != nil {
				t.Fatal(err)
			}
			if on.Profile == nil {
				t.Fatal("no profile with Attrib on")
			}
			if err := on.Profile.CheckConservation(); err != nil {
				t.Fatal(err)
			}
			if len(on.Profile.Windows) != cfgOn.Phases {
				t.Fatalf("profile has %d windows, want %d", len(on.Profile.Windows), cfgOn.Phases)
			}
			if tc.cfg.Faults != nil && (on.ReplicaReads == 0 || on.ReplicaWriteStalls == 0 ||
				on.MigrStalledAccesses == 0 || on.FaultDegradedSends == 0) {
				t.Fatalf("replication under degrade exercised %d replica reads, %d replica writes, "+
					"%d migration stalls, %d degraded sends",
					on.ReplicaReads, on.ReplicaWriteStalls, on.MigrStalledAccesses, on.FaultDegradedSends)
			}
			on.Profile = nil
			a, err := json.Marshal(off)
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(on)
			if err != nil {
				t.Fatal(err)
			}
			if string(a) != string(b) {
				t.Fatal("attribution-on Result differs from attribution-off after stripping the profile")
			}
		})
	}
}
