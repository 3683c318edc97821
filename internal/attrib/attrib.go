// Package attrib is the deterministic stall-attribution ledger of the
// step-C timing windows: every picosecond of recorded demand-access
// stall is charged to exactly one category (on-chip, DRAM service,
// DRAM queueing, socket-link and CXL propagation/queueing, coherence
// hops, TLB walks, migration and drain waits, replication write
// penalty, fault retry), bucketed per window × socket × category.
//
// The ledger is bound by the determinism contract: charges are integer
// picosecond sums accumulated in engine event order, so a profile is a
// pure function of (SystemConfig, SimConfig, spec, seed) and
// bit-identical across worker counts. Charging is passive — it never
// schedules events or alters timing — and the hot-path Charge method
// performs one bounds-free index add, so windows with attribution off
// pay nothing and windows with it on allocate only at window setup.
//
// The categories satisfy a conservation invariant checked by
// Profile.CheckConservation and `starnuma prof report -require`: each
// window's cells sum exactly to the window's total recorded stall time
// (internal/stats AMAT.SumLatency), because internal/core decomposes
// each access's latency into contiguous integer segments.
package attrib

import (
	"fmt"

	"starnuma/internal/sim"
)

// Category is one stall-attribution bucket.
type Category uint8

// The attribution categories. Every charged picosecond lands in
// exactly one of these; docs/OBSERVABILITY.md carries the catalogue of
// what each covers.
const (
	// OnChip is the memory controller's on-chip portion of an access.
	OnChip Category = iota
	// DRAM is DRAM service time: channel serialization plus device
	// latency after queueing.
	DRAM
	// DRAMQueue is time queued for a busy memory channel.
	DRAMQueue
	// LinkProp is propagation plus serialization on UPI/NUMALink hops.
	LinkProp
	// LinkQueue is queueing for a busy UPI/NUMALink wire.
	LinkQueue
	// CXLProp is propagation plus serialization on CXL hops.
	CXLProp
	// CXLQueue is queueing for a busy CXL wire.
	CXLQueue
	// Coherence is the propagation/serialization of the extra hops a
	// directory block transfer adds after the home's memory access
	// (forward to owner and the owner-side data legs). Queueing on
	// those hops still lands in the link/CXL queue categories —
	// contention is contention regardless of why the hop exists.
	Coherence
	// TLB covers shootdown-induced page walks and the software-tracking
	// study's minor page faults.
	TLB
	// Migration is demand stall behind an in-flight page migration.
	Migration
	// Drain is demand stall behind an in-flight fault-drain migration
	// (a page evacuating a failing pool device).
	Drain
	// Replication is the software replica-coherence write penalty.
	Replication
	// FaultRetry is flap retrain/backoff delay charged to demand sends
	// by a link fault injector.
	FaultRetry

	// NumCategories is the number of attribution buckets.
	NumCategories
)

// names indexes the canonical category spellings. They follow the
// metric-namespace grammar ([a-z0-9_-]) so they can appear verbatim in
// scenario stall_frac assertions and in metric paths.
var names = [NumCategories]string{
	"on-chip",
	"dram",
	"dram-queue",
	"link-prop",
	"link-queue",
	"cxl-prop",
	"cxl-queue",
	"coherence",
	"tlb",
	"migration",
	"drain",
	"replication",
	"fault-retry",
}

// String returns the category's canonical name.
func (c Category) String() string {
	if c >= NumCategories {
		return fmt.Sprintf("Category(%d)", int(c))
	}
	return names[c]
}

// Names returns the canonical category names in index order (a fresh
// copy, safe to retain).
func Names() []string {
	out := make([]string, NumCategories)
	copy(out, names[:])
	return out
}

// ByName resolves a canonical category name.
func ByName(name string) (Category, bool) {
	for i, n := range names {
		if n == name {
			return Category(i), true
		}
	}
	return 0, false
}

// Ledger accumulates one window's charges in a flat sockets ×
// NumCategories cell array. It is scratch state: internal/core pools
// it with the rest of the timing system and drains it into a
// WindowProfile at window end.
type Ledger struct {
	sockets int
	cells   []int64
}

// NewLedger returns a zeroed ledger for the given socket count.
func NewLedger(sockets int) *Ledger {
	return &Ledger{sockets: sockets, cells: make([]int64, sockets*int(NumCategories))}
}

// Sockets returns the ledger's socket dimension.
func (l *Ledger) Sockets() int { return l.sockets }

// Reset zeroes every cell in place.
func (l *Ledger) Reset() {
	clear(l.cells)
}

// Charge adds ps to the (socket, category) cell. The caller guarantees
// socket is in range; charging zero is a harmless no-op by arithmetic.
//
//starnuma:hotpath several calls per recorded demand access
func (l *Ledger) Charge(socket int, c Category, ps sim.Time) {
	l.cells[socket*int(NumCategories)+int(c)] += int64(ps)
}

// Window snapshots the ledger into a WindowProfile for the given phase
// with the given conservation target (the window's total recorded
// stall, internal/stats AMAT.SumLatency).
//
//starnuma:coldpath once-per-window drain
func (l *Ledger) Window(phase int, totalPS int64) WindowProfile {
	cells := make([]int64, len(l.cells))
	copy(cells, l.cells)
	return WindowProfile{Phase: phase, TotalPS: totalPS, Cells: cells}
}

// WindowProfile is one timing window's attribution: the checkpoint
// phase, the window's total recorded stall time, and the socket-major
// sockets × NumCategories cell array.
type WindowProfile struct {
	Phase   int     `json:"phase"`
	TotalPS int64   `json:"total_ps"`
	Cells   []int64 `json:"cells"`
}

// Sum returns the total charged picoseconds across all cells.
func (w WindowProfile) Sum() int64 {
	var s int64
	for _, v := range w.Cells {
		s += v
	}
	return s
}

// Profile is a run's attribution: windows in checkpoint order, plus
// the dimensions that make the cell arrays self-describing. It rides
// core.Result through the content-addressed result cache.
type Profile struct {
	Sockets    int             `json:"sockets"`
	Categories []string        `json:"categories"`
	Windows    []WindowProfile `json:"windows"`
}

// NewProfile returns an empty profile for the given socket count.
func NewProfile(sockets int) *Profile {
	return &Profile{Sockets: sockets, Categories: Names()}
}

// Append adds one window's profile. Callers append in checkpoint order
// so encoded profiles are bit-identical across worker counts.
//
//starnuma:hotpath one call per merged window on the merge goroutine
func (p *Profile) Append(w WindowProfile) {
	//starnumavet:allow hotalloc once per merged window, amortized over the run
	p.Windows = append(p.Windows, w)
}

// Validate checks the profile's shape: positive dimensions, known
// category count, and every window's cell array sized sockets ×
// categories. Decoders call it so corrupt documents fail loudly
// instead of panicking on a short slice downstream.
func (p *Profile) Validate() error {
	if p == nil {
		return fmt.Errorf("attrib: nil profile")
	}
	if p.Sockets <= 0 {
		return fmt.Errorf("attrib: profile has non-positive socket count %d", p.Sockets)
	}
	if len(p.Categories) == 0 {
		return fmt.Errorf("attrib: profile has no categories")
	}
	want := p.Sockets * len(p.Categories)
	for i, w := range p.Windows {
		if len(w.Cells) != want {
			return fmt.Errorf("attrib: window %d has %d cells, want %d (%d sockets × %d categories)",
				i, len(w.Cells), want, p.Sockets, len(p.Categories))
		}
		if w.TotalPS < 0 {
			return fmt.Errorf("attrib: window %d has negative total %d", i, w.TotalPS)
		}
	}
	return nil
}

// CheckConservation verifies the invariant that makes the profile
// trustworthy: every window's cells sum exactly to its recorded total
// stall time.
func (p *Profile) CheckConservation() error {
	if err := p.Validate(); err != nil {
		return err
	}
	for i, w := range p.Windows {
		if got := w.Sum(); got != w.TotalPS {
			return fmt.Errorf("attrib: window %d (phase %d) violates conservation: cells sum to %d ps, total stall is %d ps",
				i, w.Phase, got, w.TotalPS)
		}
	}
	return nil
}

// Total returns the charged picoseconds across all windows.
func (p *Profile) Total() int64 {
	var s int64
	for _, w := range p.Windows {
		s += w.Sum()
	}
	return s
}

// CategoryTotals returns the per-category totals (indexed like
// p.Categories), summed over windows and sockets.
func (p *Profile) CategoryTotals() []int64 {
	nc := len(p.Categories)
	out := make([]int64, nc)
	for _, w := range p.Windows {
		for i, v := range w.Cells {
			out[i%nc] += v
		}
	}
	return out
}

// SocketTotals returns the per-socket totals summed over windows and
// categories.
func (p *Profile) SocketTotals() []int64 {
	nc := len(p.Categories)
	out := make([]int64, p.Sockets)
	for _, w := range p.Windows {
		for i, v := range w.Cells {
			out[i/nc] += v
		}
	}
	return out
}

// Fraction returns the named category's share of the profile's total
// charge (0 when the profile is empty or the name unknown).
func (p *Profile) Fraction(category string) float64 {
	total := p.Total()
	if total == 0 {
		return 0
	}
	for i, n := range p.Categories {
		if n == category {
			return float64(p.CategoryTotals()[i]) / float64(total)
		}
	}
	return 0
}

// AddCategoryTotals accumulates the profile's per-category totals into
// dst, which must be indexed like p.Categories (callers aggregating
// several runs size it with len(Names())). Extra dst entries are left
// untouched; a short dst is an error by the same shape rules as
// Validate.
func (p *Profile) AddCategoryTotals(dst []int64) error {
	if len(dst) < len(p.Categories) {
		return fmt.Errorf("attrib: destination has %d entries, profile has %d categories",
			len(dst), len(p.Categories))
	}
	for i, v := range p.CategoryTotals() {
		dst[i] += v
	}
	return nil
}
