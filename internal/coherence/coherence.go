// Package coherence implements the directory-based MESI protocol model of
// StarNUMA (§III-C).
//
// Directory information is logically distributed across sockets and pool
// in proportion to the address space (the home node of a block is the
// home of its page); we model it as a single table keyed by block
// address, because only the *location* of the home matters for timing.
//
// On an LLC miss the directory classifies the access:
//
//   - Memory: no remote dirty copy exists; data comes from the home
//     node's DRAM.
//   - BlockTransfer3Hop: the block is dirty in another socket's LLC and
//     its home is a socket; the R→H→O→R path of Fig. 4 applies.
//   - BlockTransfer4Hop: as above but the home is the memory pool; the
//     R→H→O→H→R path applies. Counter-intuitively this is *faster* on
//     average than 3-hop (200ns vs ~333ns of network latency).
//
// Writes invalidate remote sharers; invalidation message traffic is
// charged by the caller (the timing simulator) using InvalTargets.
package coherence

import (
	"math/bits"

	"starnuma/internal/topology"
)

// Outcome classifies how an access is served.
type Outcome int

const (
	// Memory means the home node's DRAM services the access.
	Memory Outcome = iota
	// BlockTransfer3Hop is a cache-to-cache transfer with a socket home.
	BlockTransfer3Hop
	// BlockTransfer4Hop is a cache-to-cache transfer via the pool home.
	BlockTransfer4Hop
)

// IsBlockTransfer reports whether the outcome adds cache-to-cache hops
// beyond the home's memory access. The stall-attribution ledger
// (internal/attrib) charges those extra legs' propagation to the
// coherence category.
func (o Outcome) IsBlockTransfer() bool {
	return o == BlockTransfer3Hop || o == BlockTransfer4Hop
}

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Memory:
		return "Memory"
	case BlockTransfer3Hop:
		return "BT3"
	case BlockTransfer4Hop:
		return "BT4"
	default:
		return "Outcome(?)"
	}
}

// Result describes the directory's decision for one access.
type Result struct {
	Outcome Outcome
	// Owner is the socket that supplies data for a block transfer.
	Owner topology.NodeID
	// Invalidate is the set of sockets whose cached copies a write must
	// invalidate, bit s for socket s (excluding the requester and the
	// owner).
	Invalidate uint32
}

type entry struct {
	sharers uint32 // bitmask over sockets
	owner   int16  // socket holding the dirty copy, -1 if clean
}

// denseEntry is the flat-table representation of entry: an entry is
// live only when its generation matches the directory's current one AND
// it has at least one sharer (directory invariants guarantee live
// entries always do — the dirty owner is itself a sharer).
type denseEntry struct {
	sharers uint32
	owner   int16
	gen     uint16
}

// Directory tracks the global coherence state of cached blocks. It has
// two storage modes with identical semantics: a hash map for unbounded
// address spaces (NewDirectory) and a flat generation-stamped table for
// bounded ones (NewDirectorySized) — the timing simulation knows its
// footprint in blocks, and the flat table turns the per-access map
// lookups that dominated its profile into array indexing, with O(1)
// Reset via generation bump.
type Directory struct {
	blocks  map[uint64]entry // map mode (dense == nil)
	dense   []denseEntry     // dense mode
	gen     uint16
	live    int // dense-mode tracked-block count
	sockets int

	// Counters for §V-A's coherence-activity observations.
	transactions  uint64 // all directory lookups
	bt3, bt4      uint64
	invalidations uint64
}

// NewDirectory creates an empty directory for a system with the given
// socket count (at most 32).
func NewDirectory(sockets int) *Directory {
	if sockets <= 0 || sockets > 32 {
		panic("coherence: socket count out of range")
	}
	return &Directory{blocks: make(map[uint64]entry, 1<<16), sockets: sockets}
}

// maxDenseBlocks caps the dense table at 64MB of entries; larger
// address spaces keep the map representation.
const maxDenseBlocks = 1 << 23

// NewDirectorySized creates an empty directory for block addresses in
// [0, maxBlocks). Small-enough footprints get the flat dense table;
// larger ones silently fall back to the map, so callers can always
// prefer this constructor when they know their footprint.
func NewDirectorySized(sockets, maxBlocks int) *Directory {
	if maxBlocks <= 0 || maxBlocks > maxDenseBlocks {
		return NewDirectory(sockets)
	}
	if sockets <= 0 || sockets > 32 {
		panic("coherence: socket count out of range")
	}
	return &Directory{dense: make([]denseEntry, maxBlocks), gen: 1, sockets: sockets}
}

// Reset empties the directory and zeroes its counters. In dense mode
// this is a generation bump that leaves the table untouched; a reset
// directory is indistinguishable from a newly built one.
//
//starnuma:coldpath once per window on scratch reuse
func (d *Directory) Reset() {
	if d.dense != nil {
		d.gen++
		if d.gen == 0 { // wrap: invalidate by clearing
			for i := range d.dense {
				d.dense[i] = denseEntry{}
			}
			d.gen = 1
		}
		d.live = 0
	} else {
		clear(d.blocks)
	}
	d.ResetStats()
}

// lookup fetches the entry for block, if live.
//
//starnuma:hotpath per directory operation
func (d *Directory) lookup(block uint64) (entry, bool) {
	if d.dense != nil {
		de := &d.dense[block]
		if de.gen == d.gen && de.sharers != 0 {
			return entry{sharers: de.sharers, owner: de.owner}, true
		}
		return entry{}, false
	}
	e, ok := d.blocks[block]
	return e, ok
}

// store writes the entry for block. e.sharers must be non-zero (every
// caller has just added a sharer bit).
//
//starnuma:hotpath per directory operation
func (d *Directory) store(block uint64, e entry) {
	if d.dense != nil {
		de := &d.dense[block]
		if de.gen != d.gen || de.sharers == 0 {
			d.live++
		}
		*de = denseEntry{sharers: e.sharers, owner: e.owner, gen: d.gen}
		return
	}
	d.blocks[block] = e
}

// remove drops block's entry.
//
//starnuma:hotpath per last-sharer eviction
func (d *Directory) remove(block uint64) {
	if d.dense != nil {
		de := &d.dense[block]
		if de.gen == d.gen && de.sharers != 0 {
			d.live--
		}
		de.sharers = 0
		return
	}
	delete(d.blocks, block)
}

// Access records socket s reading or writing block, whose current home
// node is home (a socket or the pool). homeIsPool selects the 4-hop path
// for dirty remote hits. The returned Result tells the timing layer what
// to simulate. Directory state is updated to reflect the access: the
// requester becomes a sharer (and owner, for writes).
//
//starnuma:hotpath one call per LLC-missing access
func (d *Directory) Access(s topology.NodeID, block uint64, write bool, homeIsPool bool) Result {
	d.transactions++
	e, ok := d.lookup(block)
	res := Result{Outcome: Memory, Owner: -1}
	bit := uint32(1) << uint(s)

	if ok && e.owner >= 0 && topology.NodeID(e.owner) != s {
		// Dirty in another socket: cache-to-cache transfer.
		res.Owner = topology.NodeID(e.owner)
		if homeIsPool {
			res.Outcome = BlockTransfer4Hop
			d.bt4++
		} else {
			res.Outcome = BlockTransfer3Hop
			d.bt3++
		}
	}

	if write {
		// Invalidate all other sharers.
		res.Invalidate = e.sharers &^ bit
		if res.Owner >= 0 {
			res.Invalidate &^= uint32(1) << uint(res.Owner)
		}
		d.invalidations += uint64(bits.OnesCount32(res.Invalidate))
		d.store(block, entry{sharers: bit, owner: int16(s)})
	} else {
		newOwner := int16(-1)
		sharers := e.sharers | bit
		if ok && e.owner >= 0 {
			if topology.NodeID(e.owner) == s {
				newOwner = e.owner // still dirty in requester
			}
			// Remote dirty copy was transferred; it downgrades to shared
			// (the transfer writes the data back through the home).
		}
		d.store(block, entry{sharers: sharers, owner: newOwner})
	}
	return res
}

// Evict records that socket s dropped block from its LLC. It reports
// whether the eviction requires a writeback (the evicted copy was the
// dirty owner copy).
//
//starnuma:hotpath one call per LLC eviction
func (d *Directory) Evict(s topology.NodeID, block uint64, dirty bool) (writeback bool) {
	e, ok := d.lookup(block)
	if !ok {
		return dirty
	}
	bit := uint32(1) << uint(s)
	e.sharers &^= bit
	if e.owner == int16(s) {
		e.owner = -1
		writeback = true
	} else {
		writeback = dirty
	}
	if e.sharers == 0 {
		d.remove(block)
	} else {
		d.store(block, e)
	}
	return writeback
}

// Invalidated records that socket s lost block via an invalidation (the
// caller has already removed it from the LLC model).
//
//starnuma:hotpath one call per invalidation acknowledgement
func (d *Directory) Invalidated(s topology.NodeID, block uint64) {
	e, ok := d.lookup(block)
	if !ok {
		return
	}
	e.sharers &^= uint32(1) << uint(s)
	if e.owner == int16(s) {
		e.owner = -1
	}
	if e.sharers == 0 {
		d.remove(block)
	} else {
		d.store(block, e)
	}
}

// Sharers returns the number of sockets currently caching block.
func (d *Directory) Sharers(block uint64) int {
	e, ok := d.lookup(block)
	if !ok {
		return 0
	}
	n := 0
	for m := e.sharers; m != 0; m &= m - 1 {
		n++
	}
	return n
}

// TrackedBlocks returns the number of blocks with live directory state.
func (d *Directory) TrackedBlocks() int {
	if d.dense != nil {
		return d.live
	}
	return len(d.blocks)
}

// Stats is a snapshot of the directory's lifetime activity counters.
type Stats struct {
	Transactions  uint64
	BT3Hop        uint64
	BT4Hop        uint64
	Invalidations uint64
}

// Stats returns the directory's counters.
func (d *Directory) Stats() Stats {
	return Stats{Transactions: d.transactions, BT3Hop: d.bt3, BT4Hop: d.bt4, Invalidations: d.invalidations}
}

// ResetStats clears activity counters without touching coherence state.
func (d *Directory) ResetStats() {
	d.transactions, d.bt3, d.bt4, d.invalidations = 0, 0, 0, 0
}
