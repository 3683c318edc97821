// Package workload provides synthetic memory-access models for the eight
// workloads of the StarNUMA evaluation (§IV-E, Table III).
//
// The paper drives its simulator with Pin-collected traces of GAP graph
// kernels (BFS, CC, SSSP, TC), GenomicsBench pipelines (FMI, POA), the
// Masstree key-value store, and Silo running TPCC. Those traces are not
// public and require the original hardware/software stack, so — per the
// substitution rule in DESIGN.md — we model each workload as a
// parameterised generator that reproduces the properties StarNUMA's
// behaviour actually depends on:
//
//   - the page sharing-degree distribution (Fig. 2a, Fig. 13a),
//   - the concentration of accesses on widely-shared pages (Fig. 2b),
//   - the read/write ratio of shared pages,
//   - LLC misses per kilo-instruction (Table III),
//   - single-socket IPC (Table III), from which a zero-load IPC is
//     derived for the core timing model, and
//   - memory-level parallelism (how much miss latency overlaps).
//
// Each workload's footprint is divided into page classes; a class fixes
// the number of sharer sockets per page and carries a share of the pages
// and a (generally different) share of the accesses. Hot, widely-shared
// classes with AccessShare ≫ PageShare are exactly the paper's "vagabond
// pages".
package workload

import (
	"fmt"
	"math"
)

// PageBytes is the (small) page size used throughout, matching the
// paper's 4KB pages.
const PageBytes = 4096

// BlocksPerPage is the number of 64-byte blocks in a page.
const BlocksPerPage = PageBytes / 64

// MaxFootprintPages bounds a workload's footprint: recorded phase
// streams keep a page number in the top 25 bits of a 32-bit word (see
// PhaseStream). It holds the largest suite footprint up to a footprint
// scale of about 680.
const MaxFootprintPages = 1 << 25

// Access is one LLC-missing memory reference of a core.
type Access struct {
	Gap   uint32 // instructions retired since this core's previous miss
	Page  uint32 // virtual page number
	Block uint16 // block index within the page (0..BlocksPerPage-1)
	Write bool
}

// PageClass describes one region of a workload's footprint.
type PageClass struct {
	Name        string
	PageShare   float64 // fraction of footprint pages
	AccessShare float64 // fraction of all LLC misses
	// MinSharers/MaxSharers bound the per-page sharer-socket count;
	// each page draws its own count uniformly from the range.
	// 1/1 means private; S/S means shared by every socket.
	MinSharers, MaxSharers int
	WriteFrac              float64 // probability an access is a store
}

// Spec is the complete description of one synthetic workload.
type Spec struct {
	Name string

	// Published per-core characteristics (Table III).
	SingleSocketIPC float64 // IPC with all-local memory
	MPKI            float64 // LLC misses per kilo-instruction

	// MLP is the number of outstanding misses the core model overlaps.
	// It is the calibration knob that reconciles single-socket IPC with
	// the miss rate (graph kernels overlap little; streaming codes a
	// lot).
	MLP int

	// FootprintPages is the scaled footprint in 4KB pages.
	FootprintPages int

	Classes []PageClass

	// DriftFrac makes sharing non-stationary: this fraction of chunks
	// re-draws its sharer set every DriftPeriod phases. The paper
	// observes stable sharing for its workloads (§V-B); drift probes
	// when dynamic migration beats static oracular placement.
	DriftFrac float64
	// DriftPeriod is the number of phases an epoch's sharer sets stay
	// stable (0 is treated as 1). Migration reacts at phase granularity,
	// so drift only rewards migration when the period exceeds one phase.
	DriftPeriod int

	Seed uint64
}

// Validate checks structural soundness: shares must each sum to ~1 and
// every class must be well-formed for a system with `sockets` sockets.
func (s Spec) Validate(sockets int) error {
	if s.Name == "" {
		return fmt.Errorf("workload: empty name")
	}
	if s.SingleSocketIPC <= 0 || s.MPKI <= 0 || s.MLP <= 0 || s.FootprintPages <= 0 {
		return fmt.Errorf("workload %s: non-positive scalar parameter", s.Name)
	}
	if s.FootprintPages > MaxFootprintPages {
		return fmt.Errorf("workload %s: footprint of %d pages exceeds the %d-page limit",
			s.Name, s.FootprintPages, MaxFootprintPages)
	}
	if len(s.Classes) == 0 {
		return fmt.Errorf("workload %s: no page classes", s.Name)
	}
	var pageSum, accSum float64
	for _, c := range s.Classes {
		if c.PageShare < 0 || c.AccessShare < 0 {
			return fmt.Errorf("workload %s class %s: negative share", s.Name, c.Name)
		}
		if c.MinSharers < 1 || c.MaxSharers < c.MinSharers || c.MaxSharers > sockets {
			return fmt.Errorf("workload %s class %s: sharer range [%d,%d] invalid for %d sockets",
				s.Name, c.Name, c.MinSharers, c.MaxSharers, sockets)
		}
		if c.WriteFrac < 0 || c.WriteFrac > 1 {
			return fmt.Errorf("workload %s class %s: WriteFrac %v", s.Name, c.Name, c.WriteFrac)
		}
		pageSum += c.PageShare
		accSum += c.AccessShare
	}
	if math.Abs(pageSum-1) > 1e-6 {
		return fmt.Errorf("workload %s: PageShares sum to %v", s.Name, pageSum)
	}
	if math.Abs(accSum-1) > 1e-6 {
		return fmt.Errorf("workload %s: AccessShares sum to %v", s.Name, accSum)
	}
	if s.DriftFrac < 0 || s.DriftFrac > 1 {
		return fmt.Errorf("workload %s: DriftFrac %v", s.Name, s.DriftFrac)
	}
	if s.DriftPeriod < 0 {
		return fmt.Errorf("workload %s: DriftPeriod %d", s.Name, s.DriftPeriod)
	}
	return nil
}

// ZeroLoadIPC derives the IPC the core would achieve with zero-latency
// memory, by removing the local-miss stall component from the published
// single-socket IPC:
//
//	1/IPC_single = 1/IPC_0 + MPKI/1000 × localMissCycles / MLP
//
// The result is clamped to [0.05, issue width 4]; the clamp engages for
// extremely memory-bound workloads (SSSP, and BFS: 1/0.69 − 32/1000 ×
// 192/4 = −0.087) whose single-socket IPC is itself almost entirely
// miss time.
func (s Spec) ZeroLoadIPC(localMissCycles float64) float64 {
	inv := 1/s.SingleSocketIPC - s.MPKI/1000*localMissCycles/float64(s.MLP)
	ipc := math.Inf(1)
	if inv > 0 {
		ipc = 1 / inv
	}
	if ipc > 4 {
		ipc = 4
	}
	if ipc < 0.05 {
		ipc = 0.05
	}
	return ipc
}

// MeanGap is the mean instruction distance between LLC misses.
func (s Spec) MeanGap() float64 { return 1000 / s.MPKI }

// SharingBuckets are the sharer-count groupings (inclusive ranges) the
// paper's Fig. 2 and Fig. 13 report sharing distributions in.
var SharingBuckets = [][2]int{{1, 1}, {2, 4}, {5, 8}, {9, 15}, {16, 16}}

// SharingHistogram computes the expected distributions reported in the
// paper's Fig. 2 and Fig. 13: for each sharer count k (1..sockets),
// the fraction of footprint pages with exactly k sharers and the
// fraction of all accesses targeting such pages.
func (s Spec) SharingHistogram(sockets int) (pages, accesses []float64) {
	pages = make([]float64, sockets+1)
	accesses = make([]float64, sockets+1)
	for _, c := range s.Classes {
		span := float64(c.MaxSharers - c.MinSharers + 1)
		for k := c.MinSharers; k <= c.MaxSharers; k++ {
			pages[k] += c.PageShare / span
			accesses[k] += c.AccessShare / span
		}
	}
	return pages, accesses
}
