package migrate

import (
	"fmt"

	"starnuma/internal/tracker"
)

// PageCounts is exact per-page, per-socket access knowledge. The paper
// grants the *baseline* this information at zero cost to strengthen the
// comparison (§IV-C: "we favor the baseline by assuming zero-cost
// per-socket knowledge of all accesses to every 4KB page"). It also
// feeds the oracular static placement study (§V-B).
type PageCounts struct {
	sockets int
	counts  []uint32 // page-major: counts[page*sockets+socket]
	writes  []uint32 // per-page store counts (replication study, §V-F)
}

// NewPageCounts allocates counters for pages × sockets.
func NewPageCounts(pages, sockets int) *PageCounts {
	if pages <= 0 || sockets <= 0 {
		panic(fmt.Sprintf("migrate: invalid PageCounts %dx%d", pages, sockets))
	}
	return &PageCounts{sockets: sockets,
		counts: make([]uint32, pages*sockets),
		writes: make([]uint32, pages)}
}

// Pages returns the page count.
func (c *PageCounts) Pages() int { return len(c.counts) / c.sockets }

// Sockets returns the socket count.
func (c *PageCounts) Sockets() int { return c.sockets }

// Record notes one access by socket to page.
//
//starnuma:hotpath one call per tracked access (step B)
func (c *PageCounts) Record(socket int, page uint32) {
	c.counts[int(page)*c.sockets+socket]++
}

// RecordWrite notes that an access to page was a store.
//
//starnuma:hotpath one call per tracked write
func (c *PageCounts) RecordWrite(page uint32) {
	c.writes[page]++
}

// WriteFrac returns the fraction of the page's accesses that were
// stores (0 for untouched pages).
func (c *PageCounts) WriteFrac(page uint32) float64 {
	total := c.Total(page)
	if total == 0 {
		return 0
	}
	return float64(c.writes[page]) / float64(total)
}

// Count returns socket's access count on page.
func (c *PageCounts) Count(page uint32, socket int) uint32 {
	return c.counts[int(page)*c.sockets+socket]
}

// Total returns the page's access count across sockets.
func (c *PageCounts) Total(page uint32) uint64 {
	var t uint64
	row := c.counts[int(page)*c.sockets : int(page+1)*c.sockets]
	for _, v := range row {
		t += uint64(v)
	}
	return t
}

// Sharers returns how many sockets accessed the page.
func (c *PageCounts) Sharers(page uint32) int {
	n := 0
	row := c.counts[int(page)*c.sockets : int(page+1)*c.sockets]
	for _, v := range row {
		if v > 0 {
			n++
		}
	}
	return n
}

// Argmax returns the socket with the most accesses to page and its
// count. Ties resolve to the lowest socket.
func (c *PageCounts) Argmax(page uint32) (socket int, count uint32) {
	row := c.counts[int(page)*c.sockets : int(page+1)*c.sockets]
	for s, v := range row {
		if v > count {
			socket, count = s, v
		}
	}
	return socket, count
}

// Reset zeroes all counters (phase boundary).
func (c *PageCounts) Reset() {
	for i := range c.counts {
		c.counts[i] = 0
	}
	for i := range c.writes {
		c.writes[i] = 0
	}
}

// FoldInto adds this phase's accesses to t, region by region, leaving
// it as recording each access with t.Record would: a region's sharer
// mask is every socket with a non-zero count on one of its pages, and
// its access count is the sum of those counts. Regions for which keep
// returns false are skipped (software sampling monitors only a subset);
// a nil keep folds every region. t must cover exactly this footprint.
func (c *PageCounts) FoldInto(t *tracker.Table, keep func(region int) bool) {
	pages, rp := c.Pages(), t.RegionPages()
	if (pages+rp-1)/rp != t.NumRegions() {
		panic("migrate: tracker does not cover the PageCounts footprint")
	}
	for r := 0; r < t.NumRegions(); r++ {
		if keep != nil && !keep(r) {
			continue
		}
		end := min((r+1)*rp, pages) * c.sockets
		var sharers uint32
		var accesses uint64
		for i := r * rp * c.sockets; i < end; i += c.sockets {
			for s, v := range c.counts[i : i+c.sockets] {
				if v != 0 {
					sharers |= 1 << uint(s)
					accesses += uint64(v)
				}
			}
		}
		if accesses != 0 {
			t.AddRegion(r, sharers, accesses)
		}
	}
}

// PageCountsState is a snapshot of a PageCounts, immutable once taken:
// SaveState copies out and LoadState copies in, so one state may be
// loaded into many counters.
type PageCountsState struct {
	counts []uint32
	writes []uint32
}

// Bytes returns the snapshot's approximate heap footprint, for
// size-bounded caches.
func (st *PageCountsState) Bytes() int64 {
	return int64(len(st.counts))*4 + int64(len(st.writes))*4
}

// SaveState captures the counters' current values.
func (c *PageCounts) SaveState() *PageCountsState {
	return &PageCountsState{
		counts: append([]uint32(nil), c.counts...),
		writes: append([]uint32(nil), c.writes...),
	}
}

// LoadState overwrites the counters with a snapshot taken from a
// PageCounts of the same shape. It panics on a shape mismatch.
func (c *PageCounts) LoadState(st *PageCountsState) {
	if len(st.counts) != len(c.counts) || len(st.writes) != len(c.writes) {
		panic("migrate: LoadState shape mismatch")
	}
	copy(c.counts, st.counts)
	copy(c.writes, st.writes)
}

// AddInto accumulates this phase's counts into dst (whole-run totals for
// the static oracle).
func (c *PageCounts) AddInto(dst *PageCounts) {
	if len(dst.counts) != len(c.counts) {
		panic("migrate: PageCounts shape mismatch")
	}
	for i, v := range c.counts {
		dst.counts[i] += v
	}
	for i, v := range c.writes {
		dst.writes[i] += v
	}
}
