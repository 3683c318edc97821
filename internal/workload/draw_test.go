package workload

import (
	"math"
	"testing"
)

// gapTestMeans is every suite mean plus extremes on both sides.
func gapTestMeans() []float64 {
	means := []float64{0.5, 1, 5000, 20000}
	for _, spec := range Suite(1) {
		means = append(means, spec.MeanGap())
	}
	return means
}

// checkGap fails unless the table path and the exact expression agree
// on the 53-bit draw k. It calls t.Helper only on failure, which keeps
// 10⁸ checks affordable.
func checkGap(t *testing.T, tab *gapTable, mean float64, k uint64) {
	if got, want := tab.gap(mean, k), exactGap(mean, k); got != want {
		t.Helper()
		t.Fatalf("mean %g, draw %#x: table gap %d, exact gap %d", mean, k, got, want)
	}
}

// The gap table plus its exact fallback yields the exact expression's
// gap for every draw checked: random draws, the first and last draw
// values, and the draws around every integer threshold up to MaxGap.
func TestGapTableMatchesExact(t *testing.T) {
	const drawMax = 1<<53 - 1
	means := gapTestMeans()
	t.Run("random", func(t *testing.T) {
		total := 100_000_000
		if testing.Short() {
			total = 1_000_000
		}
		rng := newSplitmix(0x6A9)
		for _, mean := range means {
			tab := buildGapTable(mean)
			for i := 0; i < total/len(means); i++ {
				checkGap(t, tab, mean, rng.next()>>11)
			}
		}
	})
	t.Run("ends", func(t *testing.T) {
		const n = 100_000
		for _, mean := range means {
			tab := buildGapTable(mean)
			for k := uint64(0); k < n; k++ {
				checkGap(t, tab, mean, k)
				checkGap(t, tab, mean, drawMax-k)
			}
		}
	})
	t.Run("thresholds", func(t *testing.T) {
		// The exact gap is a step function of the draw; bisection finds
		// the first draw of each step, and the 64 draws on either side
		// of it must agree.
		stride := uint32(1)
		if testing.Short() {
			stride = 61
		}
		for _, mean := range means {
			tab := buildGapTable(mean)
			top := exactGap(mean, drawMax)
			for gap := uint32(2); gap <= top; gap += stride {
				lo, hi := uint64(0), uint64(drawMax) // exactGap(lo) < gap <= exactGap(hi)
				for hi-lo > 1 {
					mid := lo + (hi-lo)/2
					if exactGap(mean, mid) < gap {
						lo = mid
					} else {
						hi = mid
					}
				}
				for d := uint64(0); d <= 64; d++ {
					if hi >= d {
						checkGap(t, tab, mean, hi-d)
					}
					if hi+d <= drawMax {
						checkGap(t, tab, mean, hi+d)
					}
				}
			}
		}
	})
}

// The table answers most draws itself: a table that fell back on
// every draw would be exact but buy nothing.
func TestGapTableCoversMostDraws(t *testing.T) {
	for _, mean := range gapTestMeans()[4:] {
		tab := buildGapTable(mean)
		empty := 0
		for _, g := range tab {
			if g == 0 {
				empty++
			}
		}
		if frac := float64(empty) / float64(len(tab)); frac > 0.05 {
			t.Errorf("mean %g: %.1f%% of buckets fall back to the exact expression", mean, 100*frac)
		}
	}
}

// Every suite workload's class tables, at 16 and 32 sockets, select
// the class the scan selects: at both ends of every bucket, at random
// draws inside it, and at the 64 draws on either side of every class
// boundary.
func TestClassTableMatchesScan(t *testing.T) {
	const shift = 53 - classTableBits
	rng := newSplitmix(0xC1A55)
	check := func(name string, s int, d *socketDraw, k uint64) {
		if got, want := d.class(k), pickClass(d.picks, unit(k)); got != want {
			t.Fatalf("%s socket %d, draw %#x: table class %d, scan class %d", name, s, k, got, want)
		}
	}
	for _, spec := range Suite(0.125) {
		for _, sockets := range []int{16, 32} {
			g := mustGen(t, spec.Name, sockets, 4)
			for s := range g.bySocket {
				d := &g.bySocket[s]
				for b := uint64(0); b < 1<<classTableBits; b++ {
					check(spec.Name, s, d, b<<shift)
					check(spec.Name, s, d, b<<shift|(1<<shift-1))
					for i := 0; i < 16; i++ {
						check(spec.Name, s, d, b<<shift|rng.next()>>(64-shift))
					}
				}
				for _, p := range d.picks {
					edge := uint64(math.Ceil(p.cum * (1 << 53)))
					for k := edge - min(edge, 64); k <= edge+64 && k < 1<<53; k++ {
						check(spec.Name, s, d, k)
					}
				}
			}
		}
	}
}

// BenchmarkRecordPhase records one suite phase, BFS on 16 sockets of 4
// cores at the quick methodology's phase budget, with the draw kernel.
func BenchmarkRecordPhase(b *testing.B) {
	spec, err := ByName("BFS", 0.125)
	if err != nil {
		b.Fatal(err)
	}
	g, err := NewGenerator(spec, 16, 4)
	if err != nil {
		b.Fatal(err)
	}
	const budget = 1_000_000 // core.QuickSim().PhaseInstr
	b.ReportAllocs()
	var accesses int
	for i := 0; i < b.N; i++ {
		g.ResetPhase(0)
		accesses += len(g.record(budget).Words)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(accesses), "ns/access")
}
