package workload

import (
	"math"
	"sync"
)

// This file holds step A's one draw kernel: the loop that turns a
// core's RNG stream into LLC misses. Stream recording and draw-mode Next
// both run it, so there is no second draw path to drift from it.
//
// Per access the kernel takes five RNG outputs, in this order: the
// exponential gap, the class, the page within the class's pages for the
// core's socket, the block, and the write coin. Two of them map a
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

// record draws the current phase's stream for every core at budget
// with the draw kernel. It consumes the per-core RNG streams.
func (g *Generator) record(budget uint64) *PhaseStream {
	if g.gapTab == nil {
		g.gapTab = gapTableFor(g.meanGap)
	}
	r := newRecorder(len(g.rngs))
	for core := range g.rngs {
		r.startCore(core)
		for cum := uint64(0); cum < budget; {
			gapM1, words := r.room()
			var n int
			n, cum = g.draw(core, gapM1, words, cum, budget)
			r.n += n
		}
		r.endCore(core)
	}
	return r.finish()
}
