package attrib

import (
	"fmt"
	"strings"
)

// Run is one experiment run's profile as the renderers read it: the
// runner's memo key plus the labels that group runs by workload or
// policy without re-parsing the key.
type Run struct {
	Key      string
	Workload string
	Policy   string
	Profile  *Profile
}

// psToMS renders picoseconds as milliseconds for human tables.
func psToMS(ps int64) string {
	return fmt.Sprintf("%.3fms", float64(ps)/1e9)
}

// share renders a fraction of total as a percentage; "-" when total is
// zero.
func share(part, total int64) string {
	if total == 0 {
		return "-"
	}
	return fmt.Sprintf("%5.1f%%", 100*float64(part)/float64(total))
}

// RenderReport renders the per-run category tables of `starnuma prof
// report`: one block per run (in the given order), each category's
// charged time and share of the run total, and optionally the
// per-socket split. Zero categories are elided from the rows but the
// run totals always cover every cell.
func RenderReport(runs []Run, perSocket bool) string {
	var b strings.Builder
	for i := range runs {
		r := &runs[i]
		p := r.Profile
		total := p.Total()
		fmt.Fprintf(&b, "run %s workload=%s policy=%s windows=%d sockets=%d total=%s\n",
			r.Key, r.Workload, r.Policy, len(p.Windows), p.Sockets, psToMS(total))
		cats := p.CategoryTotals()
		for ci, name := range p.Categories {
			if cats[ci] == 0 {
				continue
			}
			fmt.Fprintf(&b, "  %-12s %12s  %s\n", name, psToMS(cats[ci]), share(cats[ci], total))
		}
		if perSocket {
			socks := p.SocketTotals()
			for s := 0; s < p.Sockets; s++ {
				if socks[s] == 0 {
					continue
				}
				fmt.Fprintf(&b, "  socket %-5d %12s  %s\n", s, psToMS(socks[s]), share(socks[s], total))
			}
		}
	}
	if len(runs) == 0 {
		b.WriteString("no runs with a stall profile\n")
	}
	return b.String()
}

// GroupTotals sums category totals and run counts over the runs whose
// key, workload, or policy contains substr (empty matches all). The
// totals slice is indexed like Names(); runs whose profiles carry a
// different category list are skipped and counted in skipped.
func GroupTotals(rs []Run, substr string) (totals []int64, runs, skipped int) {
	totals = make([]int64, NumCategories)
	for i := range rs {
		r := &rs[i]
		if substr != "" && !strings.Contains(r.Key, substr) &&
			!strings.Contains(r.Workload, substr) && !strings.Contains(r.Policy, substr) {
			continue
		}
		if err := r.Profile.AddCategoryTotals(totals); err != nil || len(r.Profile.Categories) != int(NumCategories) {
			skipped++
			continue
		}
		runs++
	}
	return totals, runs, skipped
}

// Shift is one category's movement between two aggregates, in shares
// of each side's total.
type Shift struct {
	Category string
	APS, BPS int64
	// DeltaPP is the share change in percentage points (B − A).
	DeltaPP float64
}

// DiffTotals compares two category aggregates (indexed like Names())
// and returns the per-category share shifts in index order.
func DiffTotals(a, b []int64) []Shift {
	var ta, tb int64
	for _, v := range a {
		ta += v
	}
	for _, v := range b {
		tb += v
	}
	out := make([]Shift, 0, NumCategories)
	for c := Category(0); c < NumCategories; c++ {
		s := Shift{Category: c.String(), APS: a[c], BPS: b[c]}
		var fa, fb float64
		if ta != 0 {
			fa = float64(a[c]) / float64(ta)
		}
		if tb != 0 {
			fb = float64(b[c]) / float64(tb)
		}
		s.DeltaPP = 100 * (fb - fa)
		out = append(out, s)
	}
	return out
}

// MaxAbsShift returns the largest absolute share shift in percentage
// points — `starnuma prof diff` reports it and the acceptance tests
// assert it is nonzero between policies.
func MaxAbsShift(shifts []Shift) float64 {
	var m float64
	for _, s := range shifts {
		d := s.DeltaPP
		if d < 0 {
			d = -d
		}
		if d > m {
			m = d
		}
	}
	return m
}

// RenderDiff renders the category shift table of `starnuma prof diff`:
// each category's time and share on both sides and the share movement
// in percentage points. Categories empty on both sides are elided.
func RenderDiff(labelA, labelB string, a, b []int64) string {
	var ta, tb int64
	for _, v := range a {
		ta += v
	}
	for _, v := range b {
		tb += v
	}
	var out strings.Builder
	fmt.Fprintf(&out, "a=%s total=%s\nb=%s total=%s\n", labelA, psToMS(ta), labelB, psToMS(tb))
	fmt.Fprintf(&out, "  %-12s %12s %7s  %12s %7s  %8s\n", "category", "a", "a%", "b", "b%", "Δpp")
	shifts := DiffTotals(a, b)
	for _, s := range shifts {
		if s.APS == 0 && s.BPS == 0 {
			continue
		}
		fmt.Fprintf(&out, "  %-12s %12s %7s  %12s %7s  %+8.2f\n",
			s.Category, psToMS(s.APS), share(s.APS, ta), psToMS(s.BPS), share(s.BPS, tb), s.DeltaPP)
	}
	fmt.Fprintf(&out, "max category shift: %.2fpp\n", MaxAbsShift(shifts))
	return out.String()
}
