package migrate

import (
	"testing"

	"starnuma/internal/topology"
	"starnuma/internal/tracker"
)

const (
	testPages   = 1024
	regionPages = 32
	poolNode    = topology.NodeID(16)
)

// newState builds a 16-socket state with all pages first-touched onto
// socket 0 and a pool of the given capacity.
func newState(tb *tracker.Table, poolCap int) *State {
	home := make([]topology.NodeID, testPages)
	return &State{
		PageHome:          home,
		Tracker:           tb,
		Sockets:           16,
		HasPool:           true,
		PoolNode:          poolNode,
		PoolCapacityPages: poolCap,
	}
}

// heatRegion records n accesses to region r from each socket in sockets.
func heatRegion(tb *tracker.Table, r int, n int, sockets ...int) {
	first, _ := tb.PageRange(r)
	for i := 0; i < n; i++ {
		for _, s := range sockets {
			tb.Record(s, uint32(first+i%regionPages))
		}
	}
}

func allSockets() []int {
	out := make([]int, 16)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestHotWidelySharedRegionGoesToPool(t *testing.T) {
	tb := tracker.NewTable(tracker.T16, testPages, regionPages)
	st := newState(tb, 512)
	heatRegion(tb, 2, 100, allSockets()...)

	cfg := DefaultConfig()
	cfg.HiStart = 64
	p := NewStarNUMA(cfg)
	ms := p.Decide(0, st)
	if len(ms) != regionPages {
		t.Fatalf("migrated %d pages, want %d", len(ms), regionPages)
	}
	sortMigrationsByPage(ms)
	first, _ := tb.PageRange(2)
	for i, m := range ms {
		if m.To != poolNode || int(m.Page) != first+i || m.From != 0 {
			t.Fatalf("migration %d = %+v", i, m)
		}
		if st.PageHome[m.Page] != poolNode {
			t.Fatal("PageHome not updated")
		}
	}
	if got := p.Stats().PagesToPool; got != regionPages {
		t.Fatalf("PagesToPool = %d", got)
	}
}

func TestHotNarrowlySharedRegionGoesToSharerSocket(t *testing.T) {
	tb := tracker.NewTable(tracker.T16, testPages, regionPages)
	st := newState(tb, 512)
	heatRegion(tb, 3, 200, 5, 6) // two sharers < threshold 8

	cfg := DefaultConfig()
	cfg.HiStart = 64
	p := NewStarNUMA(cfg)
	ms := p.Decide(0, st)
	if len(ms) != regionPages {
		t.Fatalf("migrated %d pages", len(ms))
	}
	for _, m := range ms {
		if m.To != 5 && m.To != 6 {
			t.Fatalf("destination %d not a sharer", m.To)
		}
	}
	if p.Stats().PagesToPool != 0 || p.Stats().PagesToSocket != regionPages {
		t.Fatalf("stats = %+v", p.Stats())
	}
}

func TestColdRegionNotMigrated(t *testing.T) {
	tb := tracker.NewTable(tracker.T16, testPages, regionPages)
	st := newState(tb, 512)
	heatRegion(tb, 1, 1, allSockets()...) // 16 accesses < HiStart

	cfg := DefaultConfig()
	cfg.HiStart = 1000
	p := NewStarNUMA(cfg)
	if ms := p.Decide(0, st); len(ms) != 0 {
		t.Fatalf("cold region migrated: %d pages", len(ms))
	}
}

func TestMigrationLimitRespected(t *testing.T) {
	tb := tracker.NewTable(tracker.T16, testPages, regionPages)
	st := newState(tb, testPages)
	for r := 0; r < 8; r++ {
		heatRegion(tb, r, 100, allSockets()...)
	}
	cfg := DefaultConfig()
	cfg.HiStart = 64
	cfg.MigrationLimit = regionPages * 2
	p := NewStarNUMA(cfg)
	ms := p.Decide(0, st)
	if len(ms) != regionPages*2 {
		t.Fatalf("migrated %d pages, want limit %d", len(ms), regionPages*2)
	}
}

func TestPoolCapacityTriggersEviction(t *testing.T) {
	tb := tracker.NewTable(tracker.T16, testPages, regionPages)
	st := newState(tb, regionPages) // pool fits exactly one region
	// Region 0 already in the pool but cold this phase.
	first, _ := tb.PageRange(0)
	for pg := first; pg < first+regionPages; pg++ {
		st.PageHome[pg] = poolNode
	}
	// A couple of sockets still touch it, below LO.
	tb.Record(2, uint32(first))
	heatRegion(tb, 5, 200, allSockets()...)

	cfg := DefaultConfig()
	cfg.HiStart = 64
	cfg.LoStart = 16
	p := NewStarNUMA(cfg)
	ms := p.Decide(0, st)

	// Region 0 must be evicted to a sharer (socket 2), region 5 pooled.
	var evicted, pooled int
	for _, m := range ms {
		switch {
		case m.From == poolNode && m.To == 2:
			evicted++
		case m.To == poolNode:
			pooled++
		}
	}
	if evicted != regionPages {
		t.Fatalf("evicted %d pages, want %d", evicted, regionPages)
	}
	if pooled != regionPages {
		t.Fatalf("pooled %d pages, want %d", pooled, regionPages)
	}
	if p.Stats().Evictions != regionPages {
		t.Fatalf("eviction stats = %+v", p.Stats())
	}
}

func TestPoolFullNoVictimSkips(t *testing.T) {
	tb := tracker.NewTable(tracker.T16, testPages, regionPages)
	st := newState(tb, regionPages)
	// Region 0 in pool and HOT (above LO): not evictable.
	first, _ := tb.PageRange(0)
	for pg := first; pg < first+regionPages; pg++ {
		st.PageHome[pg] = poolNode
	}
	heatRegion(tb, 0, 100, allSockets()...)
	heatRegion(tb, 5, 200, allSockets()...)

	cfg := DefaultConfig()
	cfg.HiStart = 6400 // only region 5 (200*16=3200... keep both hot) -> lower
	cfg.HiStart = 64
	cfg.LoStart = 4
	p := NewStarNUMA(cfg)
	ms := p.Decide(0, st)
	for _, m := range ms {
		if m.To == poolNode {
			t.Fatalf("migration to full pool: %+v", m)
		}
	}
	if p.Stats().EvictFailures == 0 {
		t.Fatal("no eviction failure recorded")
	}
	_, lo := p.Thresholds()
	if lo <= cfg.LoStart {
		t.Fatalf("LO threshold not raised after eviction failure: %d", lo)
	}
}

func TestPingPongSuppression(t *testing.T) {
	tb := tracker.NewTable(tracker.T16, testPages, regionPages)
	st := newState(tb, 512)
	cfg := DefaultConfig()
	cfg.HiStart = 64
	cfg.HiMin = 64
	cfg.HiMax = 64 // freeze threshold
	p := NewStarNUMA(cfg)

	// Region 1 oscillates: hot from all sockets each phase, but after
	// migrating to the pool, force it back out and heat it again. After
	// migCount > phase/4 it must be skipped.
	skips := func() uint64 { return p.Stats().PingPongSkips }
	for phase := 0; phase < 8; phase++ {
		tb.Reset()
		heatRegion(tb, 1, 100, allSockets()...)
		p.Decide(phase, st)
		// Kick the region out of the pool behind the policy's back.
		first, _ := tb.PageRange(1)
		for pg := first; pg < first+regionPages; pg++ {
			st.PageHome[pg] = 3
		}
	}
	if skips() == 0 {
		t.Fatal("ping-ponging region never suppressed")
	}
}

func TestT0PolicyPoolsOnlyFullySharedRegions(t *testing.T) {
	tb := tracker.NewTable(tracker.T0, testPages, regionPages)
	st := newState(tb, 512)
	heatRegion(tb, 2, 50, allSockets()...)      // all 16 sockets
	heatRegion(tb, 3, 500, 0, 1, 2, 3, 4, 5, 6) // 7 sockets: hot but not fully shared
	p := NewStarNUMA(DefaultConfig())
	ms := p.Decide(0, st)
	for _, m := range ms {
		r := tb.RegionOf(m.Page)
		if r != 2 {
			t.Fatalf("T0 migrated region %d: %+v", r, m)
		}
		if m.To != poolNode {
			t.Fatalf("T0 destination %v", m.To)
		}
	}
	if len(ms) != regionPages {
		t.Fatalf("migrated %d pages", len(ms))
	}
}

func TestDynamicHiThresholdAdjusts(t *testing.T) {
	tb := tracker.NewTable(tracker.T16, testPages, regionPages)
	st := newState(tb, testPages)
	cfg := DefaultConfig()
	cfg.HiStart = 64
	cfg.MigrationLimit = regionPages // tiny limit
	p := NewStarNUMA(cfg)
	// Many candidate regions -> HI should rise.
	for r := 0; r < 16; r++ {
		heatRegion(tb, r, 100, allSockets()...)
	}
	p.Decide(0, st)
	hi, _ := p.Thresholds()
	if hi <= cfg.HiStart {
		t.Fatalf("HI not raised: %d", hi)
	}
	// No candidates at all -> HI should fall.
	tb.Reset()
	p.Decide(1, st)
	hi2, _ := p.Thresholds()
	if hi2 >= hi {
		t.Fatalf("HI not lowered: %d -> %d", hi, hi2)
	}
}

func TestStarNUMARequiresTracker(t *testing.T) {
	p := NewStarNUMA(DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic without tracker")
		}
	}()
	p.Decide(0, &State{PageHome: make([]topology.NodeID, 8), Sockets: 16})
}

func TestStatsPoolFraction(t *testing.T) {
	s := Stats{PagesToPool: 80, PagesToSocket: 20}
	if got := s.PoolFraction(); got != 0.8 {
		t.Fatalf("PoolFraction = %v", got)
	}
	if (Stats{}).PoolFraction() != 0 {
		t.Fatal("empty PoolFraction should be 0")
	}
}

func TestPingPongSuppressionCanBeDisabled(t *testing.T) {
	tb := tracker.NewTable(tracker.T16, testPages, regionPages)
	st := newState(tb, 512)
	cfg := DefaultConfig()
	cfg.HiStart = 64
	cfg.HiMin = 64
	cfg.HiMax = 64
	cfg.DisablePingPong = true
	p := NewStarNUMA(cfg)
	for phase := 0; phase < 8; phase++ {
		tb.Reset()
		heatRegion(tb, 1, 100, allSockets()...)
		p.Decide(phase, st)
		first, _ := tb.PageRange(1)
		for pg := first; pg < first+regionPages; pg++ {
			st.PageHome[pg] = 3
		}
	}
	if p.Stats().PingPongSkips != 0 {
		t.Fatalf("ping-pong suppressed despite DisablePingPong: %+v", p.Stats())
	}
	if p.Stats().PagesToPool < 4*regionPages {
		t.Fatalf("region did not keep migrating: %+v", p.Stats())
	}
}

func TestAutoScaleDerivesThresholds(t *testing.T) {
	c := AutoConfig().AutoScale(5000)
	if c.HiStart != 5000 {
		t.Errorf("HiStart = %d, want mean 5000", c.HiStart)
	}
	if c.HiMin != 2500 {
		t.Errorf("HiMin = %d, want mean/2", c.HiMin)
	}
	if c.LoStart != 312 {
		t.Errorf("LoStart = %d, want mean/16", c.LoStart)
	}
	if c.LoMax != 2500 {
		t.Errorf("LoMax = %d, want mean/2", c.LoMax)
	}
	if c.HiMax > 0xFFFF {
		t.Errorf("HiMax = %d exceeds counter saturation", c.HiMax)
	}
}

func TestAutoScaleClampsAtSaturation(t *testing.T) {
	// SSSP-like heat: mean far above the T16 counter's ceiling.
	c := AutoConfig().AutoScale(200000)
	if c.HiStart > 0xFFFF {
		t.Errorf("HiStart = %d unreachable (counter saturates at 65535)", c.HiStart)
	}
	if c.HiMin > 0xFFFF/2 {
		t.Errorf("HiMin = %d too high", c.HiMin)
	}
}

func TestAutoScalePreservesExplicitValues(t *testing.T) {
	c := DefaultConfig() // fully specified
	scaled := c.AutoScale(999999)
	if scaled.HiStart != c.HiStart || scaled.LoStart != c.LoStart {
		t.Error("AutoScale overwrote explicit thresholds")
	}
}

func TestAutoScaleFloor(t *testing.T) {
	c := AutoConfig().AutoScale(0.5) // nearly idle workload
	if c.HiStart == 0 || c.LoStart == 0 {
		t.Errorf("degenerate thresholds: %+v", c)
	}
}
