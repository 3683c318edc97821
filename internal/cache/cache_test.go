package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGeometry(t *testing.T) {
	c := New(8<<20, 16) // 8 MB, 16-way: 131072 blocks, 8192 sets
	if c.CapacityBlocks() != 131072 {
		t.Fatalf("capacity = %d blocks", c.CapacityBlocks())
	}
	if c.Sets() != 8192 || c.Ways() != 16 {
		t.Fatalf("sets=%d ways=%d", c.Sets(), c.Ways())
	}
}

func TestTinyCacheClampsWays(t *testing.T) {
	c := New(128, 16) // 2 blocks only
	if c.CapacityBlocks() > 2 {
		t.Fatalf("capacity = %d", c.CapacityBlocks())
	}
}

func TestInvalidGeometryPanics(t *testing.T) {
	for _, f := range []func(){
		func() { New(0, 4) },
		func() { New(1<<20, 0) },
		func() { New(1<<20, MaxWays+1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestInsertContainsInvalidate(t *testing.T) {
	c := New(1<<16, 4)
	if c.Contains(42) {
		t.Fatal("empty cache contains block")
	}
	if _, _, ev := c.Insert(42, false); ev {
		t.Fatal("insert into empty set evicted")
	}
	if !c.Contains(42) {
		t.Fatal("block missing after insert")
	}
	present, dirty := c.Invalidate(42)
	if !present || dirty {
		t.Fatalf("invalidate: present=%v dirty=%v", present, dirty)
	}
	if c.Contains(42) {
		t.Fatal("block present after invalidate")
	}
	if present, _ := c.Invalidate(42); present {
		t.Fatal("double invalidate reported present")
	}
}

func TestDirtyBitLifecycle(t *testing.T) {
	c := New(1<<16, 4)
	// A write hit ORs the dirty bit into a clean line.
	c.Insert(7, false)
	c.Insert(7, true)
	if _, dirty := c.Invalidate(7); !dirty {
		t.Fatal("write hit lost the dirty bit")
	}
	// A read hit keeps an existing dirty bit.
	c.Insert(9, true)
	c.Insert(9, false)
	if _, d := c.Invalidate(9); !d {
		t.Fatal("re-insert should OR dirty bits")
	}
	// A clean fill of the way a dirty line left behind starts clean.
	c.Insert(9, false)
	if _, d := c.Invalidate(9); d {
		t.Fatal("clean fill inherited a stale dirty bit")
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(4*BlockBytes, 4) // one set, 4 ways
	for b := uint64(0); b < 4; b++ {
		c.Insert(b, false)
	}
	c.Touch(0) // 0 becomes MRU; LRU is now 1
	victim, _, ev := c.Insert(100, false)
	if !ev || victim != 1 {
		t.Fatalf("evicted %d (ev=%v), want 1", victim, ev)
	}
	if !c.Contains(0) || c.Contains(1) {
		t.Fatal("LRU state wrong after eviction")
	}
}

func TestDirtyEvictionReported(t *testing.T) {
	c := New(2*BlockBytes, 2)
	c.Insert(1, true)
	c.Insert(2, false)
	victim, vd, ev := c.Insert(3, false)
	if !ev || victim != 1 || !vd {
		t.Fatalf("victim=%d dirty=%v ev=%v", victim, vd, ev)
	}
	if s := c.Stats(); s.DirtyEvictions != 1 || s.Evictions != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestTouchMiss(t *testing.T) {
	c := New(1<<12, 2)
	if c.Touch(123) {
		t.Fatal("Touch on absent block returned true")
	}
}

func TestStatsCounters(t *testing.T) {
	c := New(1<<12, 2)
	c.Insert(1, false)
	c.Insert(1, false) // hit path
	c.Touch(1)
	s := c.Stats()
	if s.Inserts != 1 || s.Hits != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

// Property: the number of cached blocks never exceeds capacity, and a
// just-inserted block is always present.
func TestOccupancyInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(64*BlockBytes, 4)
		live := map[uint64]bool{}
		for i := 0; i < 500; i++ {
			b := uint64(rng.Intn(300))
			switch rng.Intn(3) {
			case 0:
				victim, _, ev := c.Insert(b, rng.Intn(2) == 0)
				live[b] = true
				if ev {
					delete(live, victim)
				}
				if !c.Contains(b) {
					return false
				}
			case 1:
				present, _ := c.Invalidate(b)
				if present != live[b] {
					return false
				}
				delete(live, b)
			case 2:
				if c.Touch(b) != live[b] {
					return false
				}
			}
			if len(live) > c.CapacityBlocks() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// True-LRU sanity at scale: a working set equal to capacity never
// misses after warm-up; capacity+1 in a cyclic pattern always misses
// (the classic LRU worst case).
func TestLRUWorkingSetBehaviour(t *testing.T) {
	c := New(16*BlockBytes, 16) // one fully associative set of 16
	for b := uint64(0); b < 16; b++ {
		c.Insert(b, false)
	}
	for round := 0; round < 3; round++ {
		for b := uint64(0); b < 16; b++ {
			if !c.Touch(b) {
				t.Fatalf("working set == capacity missed block %d", b)
			}
		}
	}
	// Cyclic capacity+1: every access misses under LRU.
	d := New(16*BlockBytes, 16)
	for b := uint64(0); b < 17; b++ {
		d.Insert(b, false)
	}
	for round := 0; round < 2; round++ {
		for b := uint64(0); b < 17; b++ {
			if d.Touch(b) {
				t.Fatalf("cyclic over-capacity pattern hit block %d", b)
			}
			d.Insert(b, false)
		}
	}
}

func TestOverWideTagPanics(t *testing.T) {
	c := New(16*BlockBytes, 1) // 16 sets: tags are block >> 4
	const widest = 1<<36 - 1
	c.Insert(widest, false)
	if !c.Contains(widest) {
		t.Fatal("widest legal block not cached")
	}
	for name, f := range map[string]func(uint64){
		"Contains":   func(b uint64) { c.Contains(b) },
		"Touch":      func(b uint64) { c.Touch(b) },
		"Insert":     func(b uint64) { c.Insert(b, false) },
		"Invalidate": func(b uint64) { c.Invalidate(b) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted a block with a 33-bit tag", name)
				}
			}()
			f(widest + 1)
		}()
	}
}

// refLLC is the reference the differential test checks LLC against: a
// true-LRU cache whose sets are slices of lines ordered MRU first.
type refLLC struct {
	ways int
	sets [][]refLine
	st   Stats
}

type refLine struct {
	block uint64
	dirty bool
}

func newRefLLC(sets, ways int) *refLLC {
	return &refLLC{ways: ways, sets: make([][]refLine, sets)}
}

// lookup returns block's set and its index there, or -1.
func (r *refLLC) lookup(block uint64) (*[]refLine, int) {
	set := &r.sets[block%uint64(len(r.sets))]
	for i, l := range *set {
		if l.block == block {
			return set, i
		}
	}
	return set, -1
}

// toFront moves line i of set to the MRU position.
func toFront(set []refLine, i int) {
	l := set[i]
	copy(set[1:i+1], set[:i])
	set[0] = l
}

func (r *refLLC) Contains(block uint64) bool {
	_, i := r.lookup(block)
	return i >= 0
}

func (r *refLLC) Touch(block uint64) bool {
	set, i := r.lookup(block)
	if i < 0 {
		return false
	}
	toFront(*set, i)
	r.st.Hits++
	return true
}

func (r *refLLC) Insert(block uint64, dirty bool) (victim uint64, victimDirty, evicted bool) {
	set, i := r.lookup(block)
	if i >= 0 {
		(*set)[i].dirty = (*set)[i].dirty || dirty
		toFront(*set, i)
		r.st.Hits++
		return 0, false, false
	}
	r.st.Inserts++
	if len(*set) == r.ways {
		lru := (*set)[r.ways-1]
		victim, victimDirty, evicted = lru.block, lru.dirty, true
		*set = (*set)[:r.ways-1]
		r.st.Evictions++
		if lru.dirty {
			r.st.DirtyEvictions++
		}
	}
	*set = append([]refLine{{block, dirty}}, *set...)
	return victim, victimDirty, evicted
}

func (r *refLLC) Invalidate(block uint64) (present, wasDirty bool) {
	set, i := r.lookup(block)
	if i < 0 {
		return false, false
	}
	wasDirty = (*set)[i].dirty
	*set = append((*set)[:i], (*set)[i+1:]...)
	return true, wasDirty
}

func (r *refLLC) Reset() {
	for i := range r.sets {
		r.sets[i] = r.sets[i][:0]
	}
	r.st = Stats{}
}

// TestMatchesReferenceLRU drives LLC and the reference with one seeded
// stream of mixed operations over a block span three times the capacity,
// so sets overflow often, and compares every return value and the
// counters after every operation.
func TestMatchesReferenceLRU(t *testing.T) {
	for _, g := range []struct {
		name  string
		bytes int64
		ways  int
	}{
		{"default 8MB 16-way", 8 << 20, 16},
		{"fully associative 16-way", 16 * BlockBytes, 16},
		{"direct mapped", 64 << 10, 1},
		{"3-way", 64 << 10, 3},
		{"4-way", 64 << 10, 4},
	} {
		t.Run(g.name, func(t *testing.T) {
			c := New(g.bytes, g.ways)
			r := newRefLLC(c.Sets(), c.Ways())
			span := 3 * c.CapacityBlocks()
			ops := 1_000_000
			if testing.Short() {
				// Four capacities' worth: each quarter-run reset interval
				// then inserts ~40% of capacity, so the fullest sets still
				// overflow between resets on the largest geometry.
				ops = max(100_000, 4*c.CapacityBlocks())
			}
			resetEvery := 2 * span
			if resetEvery > ops/4 {
				resetEvery = ops / 4
			}
			rng := rand.New(rand.NewSource(int64(g.ways)<<32 | g.bytes))
			var resets int
			var evictions uint64
			for i := 0; i < ops; i++ {
				b := uint64(rng.Intn(span))
				var got, want [3]interface{}
				switch op := rng.Intn(20); {
				case rng.Intn(resetEvery) == 0:
					evictions += r.st.Evictions
					c.Reset()
					r.Reset()
					resets++
				case op < 8:
					d := rng.Intn(2) == 0
					v, vd, ev := c.Insert(b, d)
					got = [3]interface{}{v, vd, ev}
					v, vd, ev = r.Insert(b, d)
					want = [3]interface{}{v, vd, ev}
				case op < 13:
					got[0], want[0] = c.Touch(b), r.Touch(b)
				case op < 16:
					p, d := c.Invalidate(b)
					got[0], got[1] = p, d
					p, d = r.Invalidate(b)
					want[0], want[1] = p, d
				default:
					got[0], want[0] = c.Contains(b), r.Contains(b)
				}
				if got != want {
					t.Fatalf("op %d on block %d: got %v, want %v", i, b, got, want)
				}
				if c.Stats() != r.st {
					t.Fatalf("op %d on block %d: stats %+v, want %+v", i, b, c.Stats(), r.st)
				}
			}
			evictions += r.st.Evictions
			if resets == 0 || evictions == 0 {
				t.Fatalf("stream exercised %d resets and %d evictions; want both", resets, evictions)
			}
		})
	}
}

// TestGenerationWrap pins the wrap path of Reset: once the generation
// counter restarts, a set last written under the restarted generation
// number must not come back to life.
func TestGenerationWrap(t *testing.T) {
	c := New(64*BlockBytes, 4) // 16 sets
	for b := uint64(0); b < 64; b++ {
		c.Insert(b, true) // every set written at generation 1
	}
	c.gen = maxGen
	c.Insert(3, false)
	c.Reset()
	if c.gen != 1 {
		t.Fatalf("generation after wrap = %d, want 1", c.gen)
	}
	for i := range c.sets {
		if c.sets[i].gen == c.gen {
			t.Fatalf("set %d still current after wrap", i)
		}
	}
	for b := uint64(0); b < 64; b++ {
		if c.Contains(b) {
			t.Fatalf("block %d survived the wrap", b)
		}
	}
	for b := uint64(64); b < 128; b++ {
		if _, _, ev := c.Insert(b, false); ev {
			t.Fatalf("fill of block %d evicted from a wrapped cache", b)
		}
	}
}

func TestHotOpsDoNotAllocate(t *testing.T) {
	c := New(8<<20, 16)
	b := uint64(0)
	for name, f := range map[string]func(){
		"Insert":     func() { c.Insert(b, b%3 == 0) },
		"Touch":      func() { c.Touch(b) },
		"Invalidate": func() { c.Invalidate(b) },
	} {
		if n := testing.AllocsPerRun(1000, func() { f(); b += 7919 }); n != 0 {
			t.Errorf("%s allocates %v times per call", name, n)
		}
	}
}

// BenchmarkWindowInsert inserts the way step-C windows do: 16 sockets'
// LLCs of the default geometry fill pseudo-random blocks of a 4096-page
// footprint (the quick suite's BFS), and each LLC is Reset after 10K of
// its own inserts, as a pooled scratch is at the next window. The
// spread over 16 multi-megabyte caches is what exposes the host-memory
// cost of a set's layout; one cache filled sequentially would not.
func BenchmarkWindowInsert(b *testing.B) {
	const (
		sockets     = 16
		footprint   = 4096 * 4096 / BlockBytes // blocks of 4096 4-KB pages
		windowFills = 10_000
	)
	var llcs [sockets]*LLC
	var fills [sockets]int
	for s := range llcs {
		llcs[s] = New(8<<20, 16)
	}
	x := uint64(0x9E3779B97F4A7C15)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x ^= x << 13 // xorshift64
		x ^= x >> 7
		x ^= x << 17
		s := i % sockets
		if fills[s] == windowFills {
			llcs[s].Reset()
			fills[s] = 0
		}
		fills[s]++
		llcs[s].Insert(x%footprint, x>>32%7 == 0)
	}
}
