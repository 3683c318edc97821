package core

import (
	"testing"

	"starnuma/internal/migrate"
	"starnuma/internal/sim"
	"starnuma/internal/stats"
	"starnuma/internal/topology"
	"starnuma/internal/workload"
)

// fakeSource is a hand-crafted AccessSource: every core repeatedly
// accesses one fixed page with a fixed gap, giving white-box control
// over the timing window's traffic.
type fakeSource struct {
	spec       workload.Spec
	cores      int
	perSocket  int
	pages      int
	pageFor    func(core int) uint32
	writeEvery int // every Nth access is a store (0 = never)
	n          []int
}

func newFakeSource(pages int, pageFor func(int) uint32) *fakeSource {
	return &fakeSource{
		spec: workload.Spec{
			Name: "fake", SingleSocketIPC: 1, MPKI: 10, MLP: 2,
			FootprintPages: pages,
			Classes: []workload.PageClass{{
				Name: "all", PageShare: 1, AccessShare: 1, MinSharers: 1, MaxSharers: 1,
			}},
		},
		cores:     64,
		perSocket: 4,
		pages:     pages,
		pageFor:   pageFor,
		n:         make([]int, 64),
	}
}

// PhaseStream records every core's stream from the start of the
// pattern; the pattern is the same for every phase.
func (f *fakeSource) PhaseStream(_ int, budget uint64) *workload.PhaseStream {
	f.n = make([]int, f.cores)
	return workload.RecordStream(f.cores, budget, f.next)
}

func (f *fakeSource) next(core int) workload.Access {
	f.n[core]++
	write := f.writeEvery > 0 && f.n[core]%f.writeEvery == 0
	// Stagger blocks per core so reads and writes of a block interleave
	// across sockets (lockstep identical streams would never leave clean
	// sharers for a write to invalidate).
	return workload.Access{
		Gap:   100,
		Page:  f.pageFor(core),
		Block: uint16((f.n[core] + 7*core) % workload.BlocksPerPage),
		Write: write,
	}
}
func (f *fakeSource) StreamSig(uint64) string          { return "" }
func (f *fakeSource) ReleasePhase(int, uint64, uint64) {}
func (f *fakeSource) NumPages() int                    { return f.pages }
func (f *fakeSource) NumCores() int                    { return f.cores }
func (f *fakeSource) SocketOf(c int) int               { return c / f.perSocket }
func (f *fakeSource) Spec() workload.Spec              { return f.spec }

// windowSim is a minimal sim config for single-window tests.
func windowSim() SimConfig {
	c := DefaultSim()
	c.Phases = 1
	c.PhaseInstr = 50_000
	c.TimedInstr = 5_000
	c.WarmupInstr = 500
	c.Policy = PolicyNone
	return c
}

// homes builds a page map with every page on the given node.
func homesAll(pages int, node topology.NodeID) []topology.NodeID {
	out := make([]topology.NodeID, pages)
	for i := range out {
		out[i] = node
	}
	return out
}

func TestWindowAllLocal(t *testing.T) {
	// Each socket's cores access a page homed on that socket.
	src := newFakeSource(16, func(core int) uint32 { return uint32(core / 4) })
	home := make([]topology.NodeID, 16)
	for i := range home {
		home[i] = topology.NodeID(i)
	}
	w := runWindow(BaselineSystem(), windowSim(), src, Checkpoint{PageHome: home}, nil)
	fr := w.amat.Breakdown().Fractions()
	if fr[stats.Local] != 1 {
		t.Fatalf("local fraction = %v", fr[stats.Local])
	}
	if m := w.amat.Measured(); m < 80*sim.Nanosecond || m > 110*sim.Nanosecond {
		t.Fatalf("local AMAT = %v, want ~80ns", m)
	}
}

func TestWindowAllTwoHop(t *testing.T) {
	// Socket 0's cores access a page homed in another chassis; read-only
	// so no block transfers interfere.
	src := newFakeSource(16, func(core int) uint32 { return uint32(core/4) ^ 0xF })
	home := make([]topology.NodeID, 16)
	for i := range home {
		home[i] = topology.NodeID(i) // page p lives on socket p
	}
	w := runWindow(BaselineSystem(), windowSim(), src, Checkpoint{PageHome: home}, nil)
	fr := w.amat.Breakdown().Fractions()
	if fr[stats.TwoHop] != 1 {
		t.Fatalf("two-hop fraction = %v (breakdown %v)", fr[stats.TwoHop], fr)
	}
	if m := w.amat.Measured(); m < 360*sim.Nanosecond {
		t.Fatalf("2-hop AMAT = %v, want >= 360ns", m)
	}
}

func TestWindowAllPool(t *testing.T) {
	src := newFakeSource(16, func(core int) uint32 { return uint32(core % 16) })
	sys := StarNUMASystem()
	topo := topology.New(sys.Topology)
	w := runWindow(sys, windowSim(), src, Checkpoint{PageHome: homesAll(16, topo.PoolNode())}, nil)
	fr := w.amat.Breakdown().Fractions()
	if fr[stats.Pool] != 1 {
		t.Fatalf("pool fraction = %v", fr[stats.Pool])
	}
	if m := w.amat.Measured(); m < 180*sim.Nanosecond || m > 260*sim.Nanosecond {
		t.Fatalf("pool AMAT = %v, want ~180ns + mild queuing", m)
	}
}

func TestWindowWriteSharingTriggersBlockTransfers(t *testing.T) {
	// All cores read-write one hot page: dirty ownership bounces between
	// sockets, so block transfers must appear.
	src := newFakeSource(16, func(core int) uint32 { return 0 })
	src.writeEvery = 4
	w := runWindow(BaselineSystem(), windowSim(), src, Checkpoint{PageHome: homesAll(16, 3)}, nil)
	bd := w.amat.Breakdown()
	if bd[stats.BTSocket] == 0 {
		t.Fatalf("no socket block transfers: %v", bd)
	}
	if w.Dir.Invalidations == 0 {
		t.Fatal("no invalidations despite write sharing")
	}
}

func TestWindowPoolHomeBlockTransfersUse4Hop(t *testing.T) {
	src := newFakeSource(16, func(core int) uint32 { return 0 })
	src.writeEvery = 4
	sys := StarNUMASystem()
	topo := topology.New(sys.Topology)
	w := runWindow(sys, windowSim(), src, Checkpoint{PageHome: homesAll(16, topo.PoolNode())}, nil)
	bd := w.amat.Breakdown()
	if bd[stats.BTPool] == 0 {
		t.Fatalf("no 4-hop transfers with pool home: %v", bd)
	}
	if bd[stats.BTSocket] != 0 {
		t.Fatalf("3-hop transfers with pool home: %v", bd)
	}
}

func TestWindowMigrationStallsAndRehomes(t *testing.T) {
	// All cores hammer page 0, which migrates from socket 15 to socket 0
	// at window start. Accesses caught mid-flight stall.
	src := newFakeSource(16, func(core int) uint32 { return 0 })
	chk := Checkpoint{
		PageHome:   homesAll(16, 15),
		Migrations: []migrate.Migration{{Page: 0, From: 15, To: 0}},
	}
	cfg := windowSim()
	// The full phase's migrations must be modelled in-window.
	cfg.TimedInstr = cfg.PhaseInstr
	w := runWindow(BaselineSystem(), cfg, src, chk, nil)
	if w.migrModeled != 1 {
		t.Fatalf("migrations modelled = %d", w.migrModeled)
	}
	// After migration, socket 0's accesses are local: breakdown must mix
	// local (socket 0 cores) and remote types.
	bd := w.amat.Breakdown()
	if bd[stats.Local] == 0 {
		t.Fatalf("no local accesses after migration: %v", bd)
	}
}

func TestWindowFractionalMigrationModeling(t *testing.T) {
	// With TimedInstr = 10% of PhaseInstr, only 10% of migrations are
	// modelled in the window (§IV-C); the rest apply instantly.
	src := newFakeSource(64, func(core int) uint32 { return uint32(core) })
	var migs []migrate.Migration
	for p := uint32(0); p < 20; p++ {
		migs = append(migs, migrate.Migration{Page: p, From: 15, To: 0})
	}
	cfg := windowSim()
	cfg.PhaseInstr = 50_000
	cfg.TimedInstr = 5_000
	w := runWindow(BaselineSystem(), cfg, src, Checkpoint{
		PageHome:   homesAll(64, 15),
		Migrations: migs,
	}, nil)
	if w.migrModeled != 2 { // 10% of 20
		t.Fatalf("migrations modelled = %d, want 2", w.migrModeled)
	}
}

func TestWindowFirstTouchInWindow(t *testing.T) {
	// Unassigned pages claimed in-window become local to the toucher.
	src := newFakeSource(16, func(core int) uint32 { return uint32(core / 4) })
	home := make([]topology.NodeID, 16)
	for i := range home {
		home[i] = Unassigned
	}
	w := runWindow(BaselineSystem(), windowSim(), src, Checkpoint{PageHome: home}, nil)
	fr := w.amat.Breakdown().Fractions()
	if fr[stats.Local] != 1 {
		t.Fatalf("first-touch window not all-local: %v", fr)
	}
}
