package coherence

import (
	"testing"

	"starnuma/internal/topology"
)

func TestColdReadGoesToMemory(t *testing.T) {
	d := NewDirectory(16)
	r := d.Access(0, 100, false, false)
	if r.Outcome != Memory || r.Owner != -1 || r.Invalidate != 0 {
		t.Fatalf("cold read: %+v", r)
	}
	if d.Sharers(100) != 1 {
		t.Fatalf("sharers = %d", d.Sharers(100))
	}
}

func TestDirtyRemoteReadIs3HopWithSocketHome(t *testing.T) {
	d := NewDirectory(16)
	d.Access(3, 100, true, false) // socket 3 writes: becomes dirty owner
	r := d.Access(7, 100, false, false)
	if r.Outcome != BlockTransfer3Hop || r.Owner != 3 {
		t.Fatalf("got %+v", r)
	}
	// After the transfer the line is shared, not dirty: another read hits
	// memory.
	r2 := d.Access(9, 100, false, false)
	if r2.Outcome != Memory {
		t.Fatalf("post-downgrade read: %+v", r2)
	}
	if d.Sharers(100) != 3 {
		t.Fatalf("sharers = %d", d.Sharers(100))
	}
}

func TestDirtyRemoteReadIs4HopWithPoolHome(t *testing.T) {
	d := NewDirectory(16)
	d.Access(3, 200, true, true)
	r := d.Access(7, 200, false, true)
	if r.Outcome != BlockTransfer4Hop || r.Owner != 3 {
		t.Fatalf("got %+v", r)
	}
	s := d.Stats()
	if s.BT4Hop != 1 || s.BT3Hop != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	d := NewDirectory(16)
	d.Access(1, 300, false, false)
	d.Access(2, 300, false, false)
	d.Access(3, 300, false, false)
	r := d.Access(4, 300, true, false)
	if r.Invalidate != 1<<1|1<<2|1<<3 {
		t.Fatalf("invalidate set = %#b", r.Invalidate)
	}
	if n := d.Stats().Invalidations; n != 3 {
		t.Fatalf("invalidations = %d", n)
	}
	if d.Sharers(300) != 1 {
		t.Fatalf("sharers after write = %d", d.Sharers(300))
	}
	// Writer is now dirty owner.
	r2 := d.Access(1, 300, false, false)
	if r2.Outcome != BlockTransfer3Hop || r2.Owner != 4 {
		t.Fatalf("read after write: %+v", r2)
	}
}

func TestWriteByOwnerNoTransfer(t *testing.T) {
	d := NewDirectory(16)
	d.Access(5, 400, true, false)
	r := d.Access(5, 400, true, false)
	if r.Outcome != Memory || r.Invalidate != 0 {
		t.Fatalf("owner re-write: %+v", r)
	}
}

func TestReadByDirtyOwnerStaysDirty(t *testing.T) {
	d := NewDirectory(16)
	d.Access(5, 450, true, false)
	r := d.Access(5, 450, false, false)
	if r.Outcome != Memory {
		t.Fatalf("owner read: %+v", r)
	}
	// Still dirty in 5: another socket must see a transfer.
	r2 := d.Access(6, 450, false, false)
	if r2.Outcome != BlockTransfer3Hop || r2.Owner != 5 {
		t.Fatalf("remote read: %+v", r2)
	}
}

func TestEvictionWritebackAndCleanup(t *testing.T) {
	d := NewDirectory(16)
	d.Access(2, 500, true, false)
	if wb := d.Evict(2, 500, true); !wb {
		t.Fatal("dirty owner eviction must write back")
	}
	if d.TrackedBlocks() != 0 {
		t.Fatalf("tracked = %d after last sharer evicted", d.TrackedBlocks())
	}
	// Clean sharer eviction: no writeback.
	d.Access(1, 501, false, false)
	d.Access(2, 501, false, false)
	if wb := d.Evict(1, 501, false); wb {
		t.Fatal("clean eviction should not write back")
	}
	if d.Sharers(501) != 1 {
		t.Fatalf("sharers = %d", d.Sharers(501))
	}
}

func TestEvictUntrackedBlock(t *testing.T) {
	d := NewDirectory(16)
	if wb := d.Evict(0, 999, true); !wb {
		t.Fatal("dirty eviction of untracked block should write back")
	}
	if wb := d.Evict(0, 999, false); wb {
		t.Fatal("clean eviction of untracked block should not write back")
	}
}

func TestInvalidated(t *testing.T) {
	d := NewDirectory(16)
	d.Access(1, 600, false, false)
	d.Access(2, 600, false, false)
	d.Invalidated(1, 600)
	if d.Sharers(600) != 1 {
		t.Fatalf("sharers = %d", d.Sharers(600))
	}
	d.Invalidated(2, 600)
	if d.TrackedBlocks() != 0 {
		t.Fatal("entry not cleaned up")
	}
	d.Invalidated(3, 601) // untracked: no-op
}

func TestInvalidateExcludesOwnerAndRequester(t *testing.T) {
	d := NewDirectory(16)
	d.Access(1, 700, true, false) // dirty owner 1
	d.Access(2, 700, false, false)
	// Now shared by {1,2}, clean. Socket 1 writes again.
	r := d.Access(1, 700, true, false)
	if r.Invalidate&(1<<1) != 0 {
		t.Fatalf("requester in invalidate set: %#b", r.Invalidate)
	}
	if r.Invalidate != 1<<2 {
		t.Fatalf("invalidate = %#b", r.Invalidate)
	}
	// A write to a block dirty in another socket takes it by the
	// transfer itself: the owner is not invalidated separately.
	d.Access(5, 701, true, false)
	if r := d.Access(6, 701, true, false); r.Owner != 5 || r.Invalidate != 0 {
		t.Fatalf("write to a remote dirty block: %+v", r)
	}
}

func TestStatsAndReset(t *testing.T) {
	d := NewDirectory(16)
	d.Access(0, 1, true, false)
	d.Access(1, 1, false, false)
	s := d.Stats()
	if s.Transactions != 2 || s.BT3Hop != 1 {
		t.Fatalf("stats = %+v", s)
	}
	d.ResetStats()
	if s := d.Stats(); s.Transactions != 0 {
		t.Fatalf("after reset: %+v", s)
	}
	if d.TrackedBlocks() == 0 {
		t.Fatal("ResetStats must not clear coherence state")
	}
}

func TestNewDirectoryBounds(t *testing.T) {
	for _, n := range []int{0, -1, 33} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("sockets=%d did not panic", n)
				}
			}()
			NewDirectory(n)
		}()
	}
}

func TestOutcomeString(t *testing.T) {
	if Memory.String() != "Memory" || BlockTransfer3Hop.String() != "BT3" ||
		BlockTransfer4Hop.String() != "BT4" || Outcome(9).String() != "Outcome(?)" {
		t.Fatal("Outcome.String wrong")
	}
}

// Invariant: sharer count equals the number of distinct sockets that
// accessed the block since the last write, writer resets to one.
func TestSharerCountInvariant(t *testing.T) {
	d := NewDirectory(16)
	for s := topology.NodeID(0); s < 16; s++ {
		d.Access(s, 42, false, false)
		if got := d.Sharers(42); got != int(s)+1 {
			t.Fatalf("after %d readers: sharers = %d", s+1, got)
		}
	}
	d.Access(5, 42, true, false)
	if got := d.Sharers(42); got != 1 {
		t.Fatalf("after write: sharers = %d", got)
	}
}

func BenchmarkDirectoryAccess(b *testing.B) {
	d := NewDirectory(16)
	for i := 0; i < b.N; i++ {
		d.Access(topology.NodeID(i%16), uint64(i%100000), i%5 == 0, i%3 == 0)
	}
}
