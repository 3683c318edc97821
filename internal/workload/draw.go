package workload

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// This file holds step A's one draw kernel: the loop that turns a
// core's RNG stream into LLC misses. Stream recording and draw-mode Next
// both run it, so there is no second draw path to drift from it. A
// recording runs it over every core in parallel, after a count pass
// that sizes each core's run from its gap draws alone (record).
//
// Per access the kernel takes drawsPerAccess (five) RNG outputs, in
// this order: the exponential gap, the class, the page within the
// class's pages for the core's socket, the block, and the write coin.
// Two of them map a
// 53-bit draw k (u = k/2^53 in [0, 1)) through a monotone step
// function:
//
//	gap   = min(uint32(-mean·ln(1-u)) + 1, MaxGap)
//	class = the first class whose cumulative access weight reaches u
//	        (the last class if none does)
//
// The kernel reads both from lookup tables indexed by the draw's top
// bits, which is exact by construction: a bucket of draws stores an
// answer only when every draw in it provably yields that answer, and
// every other draw evaluates the expression itself.

// gapTableBits is the number of leading bits of a 53-bit draw that
// select a gap-table bucket.
const gapTableBits = 16

// gapTable holds, per bucket of 53-bit draws sharing their top
// gapTableBits bits, the gap every draw in the bucket yields, or 0 when
// the bucket needs the exact expression: its draws may floor to more
// than one gap, or its gap is MaxGap, which does not fit a uint16.
type gapTable [1 << gapTableBits]uint16

// gapMargin is the relative margin by which a bucket's end values are
// widened before flooring. It must exceed twice the error of the
// computed gap value against the true (monotone) one; math.Log is
// accurate to about one ulp, a relative 1e-16, so 1e-9 leaves a wide
// berth.
const gapMargin = 1e-9

// gapValue is the unfloored exponential gap of the 53-bit draw k.
func gapValue(mean float64, k uint64) float64 {
	return -mean * math.Log(1-unit(k))
}

// exactGap is the gap of the 53-bit draw k by the exact expression: the
// kernel's fallback for draws the table does not answer.
func exactGap(mean float64, k uint64) uint32 {
	gap := uint32(gapValue(mean, k)) + 1
	if gap > MaxGap {
		gap = MaxGap
	}
	return gap
}

// buildGapTable fills mean's gap table. A bucket stores its gap only
// when the gap values at both of its ends, widened by gapMargin, floor
// to the same integer: the true value is monotone in the draw, so every
// computed value inside lies between them and floors alike.
//
//starnuma:coldpath once per distinct mean per process
func buildGapTable(mean float64) *gapTable {
	const shift = 53 - gapTableBits
	t := new(gapTable)
	for b := range t {
		lo := gapValue(mean, uint64(b)<<shift)
		hi := gapValue(mean, uint64(b)<<shift|(1<<shift-1))
		floorLo := math.Floor(lo - gapMargin*math.Max(1, lo))
		floorHi := math.Floor(hi + gapMargin*math.Max(1, hi))
		if floorLo < 0 || floorHi >= math.MaxUint16 || int64(floorLo) != int64(floorHi) {
			continue
		}
		t[b] = uint16(floorLo) + 1
	}
	return t
}

// gap returns the gap of the 53-bit draw k: the bucket's entry, or the
// exact expression where the bucket has none.
func (t *gapTable) gap(mean float64, k uint64) uint32 {
	if gap := t[k>>(53-gapTableBits)]; gap != 0 {
		return uint32(gap)
	}
	return exactGap(mean, k)
}

// gapTables shares one table per distinct mean process-wide. Tables are
// immutable once published.
var gapTables struct {
	sync.Mutex
	m map[uint64]*gapTable
}

// gapTableFor returns mean's gap table, building it on first use.
//
//starnuma:coldpath at most once per generator: on its first recording or draw-mode draw
func gapTableFor(mean float64) *gapTable {
	key := math.Float64bits(mean)
	gapTables.Lock()
	defer gapTables.Unlock()
	t := gapTables.m[key]
	if t == nil {
		if gapTables.m == nil {
			gapTables.m = make(map[uint64]*gapTable)
		}
		t = buildGapTable(mean)
		gapTables.m[key] = t
	}
	return t
}

// classTableBits is the number of leading bits of a 53-bit draw that
// select a class-table bucket.
const classTableBits = 8

// classPick is one class a socket draws from: the class's cumulative
// access weight (normalized, through this class), its pages that the
// socket shares, and its write fraction.
type classPick struct {
	cum       float64
	writeFrac float64
	pages     []uint32
}

// socketDraw is what the kernel selects from for one socket: the
// classes with at least one page for the socket, in spec order, and a
// class table. The table holds, per bucket of 53-bit draws sharing
// their top classTableBits bits, 1 + the index of the class every draw
// in the bucket selects, or 0 when the bucket straddles a class
// boundary and needs the scan. The scan's choice is monotone in the
// draw, so a bucket whose two ends select the same class selects it
// throughout.
type socketDraw struct {
	picks    []classPick
	classTab [1 << classTableBits]uint8
}

// pickClass is the class scan: the index of the first class whose
// cumulative weight reaches x, clamped to the last class for x beyond
// the normalized sum, as rounding allows.
func pickClass(picks []classPick, x float64) int {
	lo := 0
	for lo < len(picks)-1 && picks[lo].cum < x {
		lo++
	}
	return lo
}

// newSocketDraw builds a socket's class table over picks.
//
//starnuma:coldpath once per socket per generator build or drift rebuild
func newSocketDraw(picks []classPick) socketDraw {
	const shift = 53 - classTableBits
	d := socketDraw{picks: picks}
	for b := range d.classTab {
		lo := pickClass(picks, unit(uint64(b)<<shift))
		hi := pickClass(picks, unit(uint64(b)<<shift|(1<<shift-1)))
		if lo == hi && lo < math.MaxUint8 {
			d.classTab[b] = uint8(lo) + 1
		}
	}
	return d
}

// class returns the index of the class the 53-bit draw k selects.
func (d *socketDraw) class(k uint64) int {
	if c := d.classTab[k>>(53-classTableBits)]; c != 0 {
		return int(c) - 1
	}
	return pickClass(d.picks, unit(k))
}

// draw is the draw kernel. It draws core's next LLC misses into gapM1
// and words, packed as in PhaseStream, until the buffers are full or
// the running instruction count cum reaches budget, and returns how
// many it drew and the new count. The core's RNG lives in a local for
// the whole run. g.gapTab must be set.
//
// Generator pages lie below MaxFootprintPages (Spec.Validate) and gaps
// in [1, MaxGap], so every drawn access packs.
//
//starnuma:hotpath one iteration per drawn LLC miss, in stream recording and draw-mode Next
func (g *Generator) draw(core int, gapM1 []uint16, words []uint32, cum, budget uint64) (int, uint64) {
	rng := g.rngs[core]
	sd := &g.bySocket[core/g.coresPerSocket]
	tab, mean := g.gapTab, g.meanGap
	words = words[:len(gapM1)]
	n := 0
	for ; n < len(gapM1) && cum < budget; n++ {
		// Exponential inter-miss gap with the spec's mean, at least one
		// instruction.
		gap := tab.gap(mean, rng.next()>>11)
		// Class choice by per-socket cumulative access weight.
		c := &sd.picks[sd.class(rng.next()>>11)]
		page := c.pages[rng.intn(len(c.pages))]
		block := uint16(rng.intn(BlocksPerPage))
		write := rng.float64v() < c.writeFrac
		gapM1[n], words[n] = pack(gap, page, block, write)
		cum += uint64(gap)
	}
	g.rngs[core] = rng
	return n, cum
}

// drawsPerAccess is the number of RNG outputs the draw kernel takes
// per access; the gap is drawn from the first of them.
const drawsPerAccess = 5

// runLength returns how many accesses core's run at budget holds: the
// draw kernel's stop rule applied to the gap draws alone. splitmix64 is
// counter-based, so access i's gap draw is the output at state
// s0 + (drawsPerAccess·i + 1)·gamma, where s0 is the core's state at
// the start of the run, and the other draws are skipped. It reads, and
// does not advance, the core's RNG. g.gapTab must be set.
//
//starnuma:hotpath one iteration per LLC miss of a recording's count pass
func (g *Generator) runLength(core int, budget uint64) int {
	// The state advance per access, wrapped to 64 bits as the
	// generator's own additions wrap.
	const stride = drawsPerAccess * splitmixGamma & (1<<64 - 1)
	tab, mean := g.gapTab, g.meanGap
	state := g.rngs[core].state + splitmixGamma
	n := 0
	for cum := uint64(0); cum < budget; n++ {
		cum += uint64(tab.gap(mean, splitmixOut(state)>>11))
		state += stride
	}
	return n
}

// recordings counts the phase streams generators have recorded,
// process-wide.
var recordings atomic.Int64

// StreamRecordings returns how many phase streams generators have
// recorded in this process. Each one is a stream-cache miss that drew a
// whole phase; a caller that waited for another's recording of the same
// stream did not record.
func StreamRecordings() int64 { return recordings.Load() }

// record draws the current phase's stream for every core at budget
// with the draw kernel, in two passes that each spread the cores over
// up to GOMAXPROCS goroutines. The count pass finds every core's run
// length (runLength), which fixes the core's offsets, so the arrays are
// allocated once at their exact size; the fill pass then runs the draw
// kernel over each core's slice in place. Cores draw from their own RNG
// streams, so the result does not depend on the worker count. Without a
// second CPU the count pass is pure overhead: about 4 ns per access on
// top of the fill's ~20. It consumes the per-core RNG streams.
func (g *Generator) record(budget uint64) *PhaseStream {
	if g.gapTab == nil {
		g.gapTab = gapTableFor(g.meanGap)
	}
	recordings.Add(1)
	cores := len(g.rngs)
	s := &PhaseStream{Off: make([]int32, cores+1)}
	eachCore(cores, func(core int) { s.Off[core+1] = int32(g.runLength(core, budget)) })
	for core := 0; core < cores; core++ {
		s.Off[core+1] += s.Off[core]
	}
	s.GapM1, s.Words = make([]uint16, s.Off[cores]), make([]uint32, s.Off[cores])
	eachCore(cores, func(core int) {
		lo, hi := s.Off[core], s.Off[core+1]
		n, cum := g.draw(core, s.GapM1[lo:hi], s.Words[lo:hi], 0, budget)
		if n != int(hi-lo) || cum < budget {
			runLengthMismatch(core, int(hi-lo), n, cum, budget)
		}
	})
	return s
}

// eachCore calls f once for every core in [0, cores), on up to
// GOMAXPROCS goroutines (the caller's among them) that take cores from
// a shared counter, and returns when every call has returned. f must
// touch only per-core state.
func eachCore(cores int, f func(core int)) {
	var next atomic.Int64
	work := func() {
		for core := int(next.Add(1) - 1); core < cores; core = int(next.Add(1) - 1) {
			f(core)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(runtime.GOMAXPROCS(0), cores); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

//starnuma:coldpath only on a bug: the count pass and the draw kernel disagree
func runLengthMismatch(core, counted, drawn int, cum, budget uint64) {
	panic(fmt.Sprintf("workload: core %d: the count pass sized its run at %d accesses, the draw kernel drew %d reaching %d of budget %d instructions",
		core, counted, drawn, cum, budget))
}
