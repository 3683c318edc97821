package coherence

import (
	"math/bits"
	"math/rand"
	"testing"

	"starnuma/internal/cache"
	"starnuma/internal/topology"
)

// Co-simulation invariant: driving per-socket LLC presence caches and
// the directory together (exactly as the timing simulator does), the
// directory's sharer set for a block must always equal the set of LLCs
// holding it, and every dirty eviction must be reported as a writeback.
func TestDirectoryTracksLLCs(t *testing.T) {
	const sockets = 16
	dir := NewDirectory(sockets)
	llcs := make([]*cache.LLC, sockets)
	for i := range llcs {
		llcs[i] = cache.New(64*cache.BlockBytes, 4) // tiny: forces evictions
	}
	rng := rand.New(rand.NewSource(42))

	for i := 0; i < 20000; i++ {
		s := topology.NodeID(rng.Intn(sockets))
		block := uint64(rng.Intn(512))
		write := rng.Intn(4) == 0

		res := dir.Access(s, block, write, rng.Intn(2) == 0)
		for m := res.Invalidate; m != 0; m &= m - 1 {
			llcs[bits.TrailingZeros32(m)].Invalidate(block)
		}
		if write && res.Owner >= 0 {
			llcs[res.Owner].Invalidate(block) // RFO: ownership transfer
		}
		if victim, vd, ev := llcs[s].Insert(block, write); ev {
			dir.Evict(s, victim, vd)
		}

		// Spot-check consistency every few hundred operations.
		if i%500 == 0 {
			for b := uint64(0); b < 512; b += 37 {
				inLLCs := 0
				for _, l := range llcs {
					if l.Contains(b) {
						inLLCs++
					}
				}
				if got := dir.Sharers(b); got != inLLCs {
					t.Fatalf("op %d block %d: directory says %d sharers, LLCs hold %d",
						i, b, got, inLLCs)
				}
			}
		}
	}
}

// The directory never reports an owner that is the requester itself, and
// a block transfer's owner always currently caches the block.
func TestTransferOwnerIsCachingRemote(t *testing.T) {
	const sockets = 8
	dir := NewDirectory(sockets)
	llcs := make([]*cache.LLC, sockets)
	for i := range llcs {
		llcs[i] = cache.New(1<<14, 4)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10000; i++ {
		s := topology.NodeID(rng.Intn(sockets))
		block := uint64(rng.Intn(256))
		write := rng.Intn(3) == 0
		res := dir.Access(s, block, write, false)
		if res.Outcome != Memory {
			if res.Owner == s {
				t.Fatalf("op %d: transfer from self", i)
			}
			if !llcs[res.Owner].Contains(block) {
				t.Fatalf("op %d: owner %d does not cache block %d", i, res.Owner, block)
			}
		}
		for m := res.Invalidate; m != 0; m &= m - 1 {
			llcs[bits.TrailingZeros32(m)].Invalidate(block)
		}
		if write && res.Owner >= 0 {
			llcs[res.Owner].Invalidate(block)
		}
		if victim, vd, ev := llcs[s].Insert(block, write); ev {
			dir.Evict(s, victim, vd)
		}
	}
}
