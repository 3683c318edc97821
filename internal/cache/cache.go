// Package cache implements the per-socket LLC presence model used by the
// timing simulation.
//
// Following the paper's mixed-modality methodology (§IV-B), "light"
// sockets carry an LLC-sized cache whose job is not to filter the traced
// miss stream (the stream already is LLC misses) but to track which
// blocks each socket currently caches, so the coherence directory can
// decide when an access must be served by a cache-to-cache block
// transfer and when an eviction must write back dirty data.
//
// The cache is set-associative with true per-set LRU. Each set is one
// contiguous 80-byte record: the generation it was last written in, a
// valid and a dirty mask, the ways' recency order packed as 4-bit way
// numbers in one word, and 32-bit tags. An access therefore reads one
// record, not several parallel arrays, which keeps the model's host
// footprint and cache misses small when many sockets are simulated.
// Reset is O(1): it bumps the cache's generation, and a set whose stored
// generation is stale reads as empty, so a timing window can recycle a
// multi-megabyte LLC without touching its records.
package cache

import (
	"fmt"
	"math"
	"math/bits"
)

const (
	// BlockBytes is the cache block (line) size.
	BlockBytes = 64
	// BlockShift is log2(BlockBytes).
	BlockShift = 6
	// MaxWays is the largest associativity a set record can hold: the
	// valid and dirty masks are 16 bits and the recency order packs 16
	// 4-bit way numbers into one uint64.
	MaxWays = 16
)

// maxGen bounds the generation counter. On wrap Reset clears every
// set's stored generation, so a set last written many generations ago
// cannot come back to life when the counter restarts at 1. Generation 0
// is never current, so a zeroed record always reads as empty.
const maxGen = math.MaxUint32

// identityOrder is the recency order of a freshly emptied set: way i at
// position i. Nibbles past the associativity are unused.
const identityOrder = 0xFEDCBA9876543210

// set is one cache set. The recency order lists way numbers MRU first,
// one per nibble; the LRU way sits at position ways-1. It covers every
// way, valid or not, and only its order among valid ways matters: a way
// moves to the front whenever it is filled or hit, so in a full set the
// last position holds the least-recently used line.
type set struct {
	gen   uint32 // generation the set was last written in
	valid uint16 // way i holds a block when bit i is set
	dirty uint16 // way i's block is dirty when bit i is set
	order uint64 // recency permutation, 4-bit way numbers, MRU first
	tags  [MaxWays]uint32
}

// LLC is a set-associative presence cache over 64-byte block addresses.
// A block maps to set block&setMask with tag block>>setBits.
type LLC struct {
	sets     []set
	ways     int
	setMask  uint64
	setBits  uint
	lruShift uint   // bit offset of the LRU position in set.order
	full     uint16 // valid mask of a full set
	gen      uint32
	// counters
	inserts, hits, evictions, dirtyEvictions uint64
}

// New builds an LLC holding capacityBytes of 64-byte blocks with the
// given associativity. The set count is rounded down to a power of two
// (at least one set). It panics on nonsensical arguments, and on more
// than MaxWays ways.
func New(capacityBytes int64, ways int) *LLC {
	if capacityBytes < BlockBytes || ways <= 0 || ways > MaxWays {
		panic(fmt.Sprintf("cache: invalid capacity %d / ways %d", capacityBytes, ways))
	}
	blocks := int(capacityBytes / BlockBytes)
	if blocks < ways {
		ways = blocks
	}
	sets := 1
	for sets*2*ways <= blocks {
		sets *= 2
	}
	return &LLC{
		sets:     make([]set, sets),
		ways:     ways,
		setMask:  uint64(sets - 1),
		setBits:  uint(bits.TrailingZeros(uint(sets))),
		lruShift: uint(4 * (ways - 1)),
		full:     uint16(1<<ways - 1),
		gen:      1,
	}
}

// Reset empties the cache and zeroes its counters by bumping the
// generation, leaving the set records untouched. A reset LLC is
// indistinguishable from a newly built one.
//
//starnuma:coldpath once per window on scratch reuse
func (c *LLC) Reset() {
	if c.gen == maxGen {
		for i := range c.sets {
			c.sets[i].gen = 0
		}
		c.gen = 0
	}
	c.gen++
	c.inserts, c.hits, c.evictions, c.dirtyEvictions = 0, 0, 0, 0
}

// Sets returns the number of sets.
func (c *LLC) Sets() int { return len(c.sets) }

// Ways returns the associativity.
func (c *LLC) Ways() int { return c.ways }

// CapacityBlocks returns how many blocks the cache can hold.
func (c *LLC) CapacityBlocks() int { return len(c.sets) * c.ways }

// locate returns block's set and its tag within that set.
func (c *LLC) locate(block uint64) (*set, uint32) {
	tag := block >> c.setBits
	if tag > math.MaxUint32 {
		tagPanic(block, c.setBits)
	}
	return &c.sets[block&c.setMask], uint32(tag)
}

//starnuma:coldpath an over-wide block address is a caller bug
func tagPanic(block uint64, setBits uint) {
	panic(fmt.Sprintf("cache: block %#x needs a tag wider than 32 bits above %d set bits", block, setBits))
}

// find returns the valid way of s holding tag, or -1. A set left over
// from an earlier generation holds nothing.
func (c *LLC) find(s *set, tag uint32) int {
	if s.gen != c.gen {
		return -1
	}
	for m := s.valid; m != 0; m &= m - 1 {
		if w := bits.TrailingZeros16(m); s.tags[w] == tag {
			return w
		}
	}
	return -1
}

// promote moves way w to the MRU position of order.
func promote(order uint64, w int) uint64 {
	// Find w's nibble: XOR zeroes it, and the lowest zero nibble is
	// located exactly by the borrow trick (false positives only appear
	// above a true zero). Unused nibbles sit above every real position.
	x := order ^ uint64(w)*0x1111111111111111
	pos := uint(bits.TrailingZeros64((x-0x1111111111111111)&^x&0x8888888888888888)) &^ 3
	below := uint64(1)<<pos - 1 // positions before w's
	above := ^(below<<4 | 0xF)  // positions after w's
	return order&above | (order&below)<<4 | uint64(w)
}

// Contains reports whether block is cached, without touching LRU state.
//
//starnuma:hotpath per-access presence probe
func (c *LLC) Contains(block uint64) bool {
	s, tag := c.locate(block)
	return c.find(s, tag) >= 0
}

// Touch promotes block to MRU if present and reports whether it was.
//
//starnuma:hotpath one call per access
func (c *LLC) Touch(block uint64) bool {
	s, tag := c.locate(block)
	w := c.find(s, tag)
	if w < 0 {
		return false
	}
	s.order = promote(s.order, w)
	c.hits++
	return true
}

// Insert places block in the cache as MRU, marking it dirty if requested.
// If the block was already present, its dirty bit is OR-ed. If the
// insertion displaces a valid block, the displaced block and its dirty
// bit are returned with evicted=true.
//
//starnuma:hotpath one call per miss fill
func (c *LLC) Insert(block uint64, dirty bool) (victim uint64, victimDirty, evicted bool) {
	s, tag := c.locate(block)
	if s.gen != c.gen {
		s.gen, s.valid, s.dirty, s.order = c.gen, 0, 0, identityOrder
	}
	var d uint16
	if dirty {
		d = 1
	}
	if w := c.find(s, tag); w >= 0 {
		s.dirty |= d << w
		s.order = promote(s.order, w)
		c.hits++
		return 0, false, false
	}
	c.inserts++
	var w int
	if free := c.full &^ s.valid; free != 0 {
		w = bits.TrailingZeros16(free)
	} else {
		// Every way was filled this generation, so the last position
		// holds the least-recently used live line.
		w = int(s.order >> c.lruShift & 0xF)
		victim = uint64(s.tags[w])<<c.setBits | block&c.setMask
		victimDirty, evicted = s.dirty>>w&1 != 0, true
		c.evictions++
		if victimDirty {
			c.dirtyEvictions++
		}
	}
	s.tags[w] = tag
	s.valid |= 1 << w
	s.dirty = s.dirty&^(1<<w) | d<<w
	s.order = promote(s.order, w)
	return victim, victimDirty, evicted
}

// Invalidate removes block if present, returning whether it was present
// and whether it was dirty.
//
//starnuma:hotpath one call per coherence invalidation
func (c *LLC) Invalidate(block uint64) (present, wasDirty bool) {
	s, tag := c.locate(block)
	w := c.find(s, tag)
	if w < 0 {
		return false, false
	}
	wasDirty = s.dirty>>w&1 != 0
	s.valid &^= 1 << w
	s.dirty &^= 1 << w
	return true, wasDirty
}

// Stats is a snapshot of the cache's lifetime counters.
type Stats struct {
	Inserts        uint64
	Hits           uint64
	Evictions      uint64
	DirtyEvictions uint64
}

// Stats returns the cache's counters.
func (c *LLC) Stats() Stats {
	return Stats{Inserts: c.inserts, Hits: c.hits, Evictions: c.evictions, DirtyEvictions: c.dirtyEvictions}
}
