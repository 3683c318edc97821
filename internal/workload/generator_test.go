package workload

import (
	"math"
	"testing"
	"testing/quick"
)

func mustGen(t *testing.T, name string, sockets, cps int) *Generator {
	t.Helper()
	spec, err := ByName(name, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenerator(spec, sockets, cps)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGeneratorShape(t *testing.T) {
	g := mustGen(t, "BFS", 16, 4)
	if g.NumCores() != 64 {
		t.Fatalf("cores = %d", g.NumCores())
	}
	if g.SocketOf(0) != 0 || g.SocketOf(5) != 1 || g.SocketOf(63) != 15 {
		t.Fatal("SocketOf mapping wrong")
	}
	if g.NumPages() != g.Spec().FootprintPages {
		t.Fatal("NumPages mismatch")
	}
}

func TestGeneratorBadShape(t *testing.T) {
	spec, _ := ByName("BFS", 1)
	if _, err := NewGenerator(spec, 0, 4); err == nil {
		t.Fatal("accepted 0 sockets")
	}
	if _, err := NewGenerator(spec, 16, 0); err == nil {
		t.Fatal("accepted 0 cores/socket")
	}
	if _, err := NewGenerator(Spec{}, 16, 4); err == nil {
		t.Fatal("accepted invalid spec")
	}
}

func TestDeterministicReplay(t *testing.T) {
	g1 := mustGen(t, "BFS", 16, 4)
	g2 := mustGen(t, "BFS", 16, 4)
	g1.ResetPhase(3)
	g2.ResetPhase(3)
	for i := 0; i < 1000; i++ {
		core := i % 64
		a, b := g1.Next(core), g2.Next(core)
		if a != b {
			t.Fatalf("streams diverge at %d: %+v vs %+v", i, a, b)
		}
	}
}

func TestPhasesDiffer(t *testing.T) {
	g := mustGen(t, "BFS", 16, 4)
	g.ResetPhase(0)
	var p0 []Access
	for i := 0; i < 50; i++ {
		p0 = append(p0, g.Next(7))
	}
	g.ResetPhase(1)
	same := 0
	for i := 0; i < 50; i++ {
		if g.Next(7) == p0[i] {
			same++
		}
	}
	if same == 50 {
		t.Fatal("phase 1 stream identical to phase 0")
	}
}

func TestResetPhaseRestartsStream(t *testing.T) {
	g := mustGen(t, "CC", 16, 4)
	g.ResetPhase(2)
	first := g.Next(0)
	g.ResetPhase(2)
	if got := g.Next(0); got != first {
		t.Fatalf("ResetPhase not idempotent: %+v vs %+v", got, first)
	}
}

func TestAccessFieldsInRange(t *testing.T) {
	g := mustGen(t, "SSSP", 16, 4)
	for i := 0; i < 20000; i++ {
		a := g.Next(i % 64)
		if a.Page >= uint32(g.NumPages()) {
			t.Fatalf("page %d out of range", a.Page)
		}
		if a.Block >= BlocksPerPage {
			t.Fatalf("block %d out of range", a.Block)
		}
		if a.Gap < 1 || a.Gap > MaxGap {
			t.Fatalf("gap %d out of range", a.Gap)
		}
	}
}

func TestSocketOnlyAccessesItsPages(t *testing.T) {
	g := mustGen(t, "BFS", 16, 4)
	for i := 0; i < 20000; i++ {
		core := i % 64
		a := g.Next(core)
		socket := g.SocketOf(core)
		found := false
		for _, s := range g.Sharers(a.Page) {
			if s == socket {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("core %d (socket %d) accessed page %d with sharers %v",
				core, socket, a.Page, g.Sharers(a.Page))
		}
	}
}

func TestMeanGapApproximatesMPKI(t *testing.T) {
	g := mustGen(t, "BFS", 16, 4) // MPKI 32 -> mean gap 31.25+1
	var sum float64
	const n = 50000
	for i := 0; i < n; i++ {
		sum += float64(g.Next(i % 64).Gap)
	}
	mean := sum / n
	want := g.Spec().MeanGap() + 1 // +1 from the minimum-gap offset
	if math.Abs(mean-want)/want > 0.05 {
		t.Fatalf("mean gap = %v, want ~%v", mean, want)
	}
}

func TestWriteFractionApproximatesSpec(t *testing.T) {
	g := mustGen(t, "Masstree", 16, 4)
	// Expected mix: Σ AccessShare × WriteFrac over the classes.
	var want float64
	for _, c := range g.Spec().Classes {
		want += c.AccessShare * c.WriteFrac
	}
	writes := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if g.Next(i % 64).Write {
			writes++
		}
	}
	frac := float64(writes) / n
	if frac < want-0.05 || frac > want+0.05 {
		t.Fatalf("write fraction = %v, want ~%v", frac, want)
	}
}

// The empirical access distribution by sharing degree must track the
// analytic histogram (which itself is validated against Fig. 2). Sharer
// sets are chunk-correlated, which makes individual degrees lumpy at
// small footprints, so compare Fig. 2's buckets rather than single
// degrees.
func TestEmpiricalSharingMatchesAnalytic(t *testing.T) {
	spec, err := ByName("BFS", 1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenerator(spec, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, wantAcc := g.Spec().SharingHistogram(16)
	got := make([]float64, 17)
	const n = 100000
	for i := 0; i < n; i++ {
		a := g.Next(i % 64)
		got[len(g.Sharers(a.Page))] += 1.0 / n
	}
	for _, b := range SharingBuckets {
		var w, e float64
		for k := b[0]; k <= b[1]; k++ {
			w += wantAcc[k]
			e += got[k]
		}
		if math.Abs(e-w) > 0.05 {
			t.Errorf("sharing bucket %d-%d: empirical %.3f vs analytic %.3f", b[0], b[1], e, w)
		}
	}
}

func TestSharersProperties(t *testing.T) {
	g := mustGen(t, "BFS", 16, 4)
	f := func(p uint32) bool {
		page := p % uint32(g.NumPages())
		sh := g.Sharers(page)
		if len(sh) < 1 || len(sh) > 16 {
			return false
		}
		seen := map[int]bool{}
		for _, s := range sh {
			if s < 0 || s > 15 || seen[s] {
				return false
			}
			seen[s] = true
		}
		// Deterministic.
		sh2 := g.Sharers(page)
		if len(sh2) != len(sh) {
			return false
		}
		for i := range sh {
			if sh[i] != sh2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSingleSocketClampsSharers(t *testing.T) {
	spec, _ := ByName("BFS", 0.25)
	g, err := NewGenerator(spec, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		a := g.Next(i % 4)
		sh := g.Sharers(a.Page)
		if len(sh) != 1 || sh[0] != 0 {
			t.Fatalf("single-socket sharers = %v", sh)
		}
	}
}

func TestPrivatePagesStripedEvenly(t *testing.T) {
	g := mustGen(t, "POA", 16, 4)
	counts := make([]int, 16)
	for p := uint32(0); p < uint32(g.NumPages()); p++ {
		sh := g.Sharers(p)
		counts[sh[0]]++
	}
	want := g.NumPages() / 16
	for s, c := range counts {
		if c < want-1 || c > want+1 {
			t.Fatalf("socket %d owns %d private pages, want ~%d", s, c, want)
		}
	}
}

func BenchmarkGeneratorNext(b *testing.B) {
	spec, _ := ByName("BFS", 0.25)
	g, err := NewGenerator(spec, 16, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next(i % 64)
	}
}

// §III-B's 32-socket scaling: sharer counts authored for 16 sockets
// scale proportionally, so "shared by all" stays "shared by all".
func TestThirtyTwoSocketSharerScaling(t *testing.T) {
	spec, err := ByName("BFS", 0.25)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenerator(spec, 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumCores() != 128 {
		t.Fatalf("cores = %d", g.NumCores())
	}
	// The last class (global, authored 16/16) must span all 32 sockets.
	maxSharers := 0
	for p := uint32(0); p < uint32(g.NumPages()); p++ {
		if n := len(g.Sharers(p)); n > maxSharers {
			maxSharers = n
		}
	}
	if maxSharers != 32 {
		t.Fatalf("max sharers = %d, want 32", maxSharers)
	}
	// Private pages stay private.
	poa, _ := ByName("POA", 0.25)
	gp, err := NewGenerator(poa, 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	for p := uint32(0); p < 1000; p++ {
		if len(gp.Sharers(p)) != 1 {
			t.Fatalf("private page %d has %d sharers", p, len(gp.Sharers(p)))
		}
	}
}

// Drift: a non-zero DriftFrac re-draws sharer sets between phases while
// keeping everything deterministic and replayable.
func TestDriftRedrawsSharerSets(t *testing.T) {
	spec, _ := ByName("BFS", 0.05)
	spec.DriftFrac = 0.5
	g, err := NewGenerator(spec, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	g.ResetPhase(0)
	before := make(map[uint32][]int)
	for p := uint32(0); p < uint32(g.NumPages()); p += SharerChunkPages {
		before[p] = g.Sharers(p)
	}
	g.ResetPhase(3)
	changed := 0
	for p, sh := range before {
		now := g.Sharers(p)
		if len(now) != len(sh) {
			changed++
			continue
		}
		for i := range sh {
			if now[i] != sh[i] {
				changed++
				break
			}
		}
	}
	if changed == 0 {
		t.Fatal("no sharer sets drifted")
	}
	if changed == len(before) {
		t.Fatal("all chunks drifted despite DriftFrac 0.5")
	}
	// Replay determinism: same phase, same sets.
	g.ResetPhase(0)
	for p, sh := range before {
		now := g.Sharers(p)
		if len(now) != len(sh) {
			t.Fatalf("phase 0 not reproducible for page %d", p)
		}
	}
}

func TestZeroDriftIsStationary(t *testing.T) {
	g := mustGen(t, "BFS", 16, 4)
	sh0 := g.Sharers(100)
	g.ResetPhase(5)
	sh5 := g.Sharers(100)
	if len(sh0) != len(sh5) {
		t.Fatal("stationary workload drifted")
	}
	for i := range sh0 {
		if sh0[i] != sh5[i] {
			t.Fatal("stationary workload drifted")
		}
	}
}

func TestDriftFracValidation(t *testing.T) {
	spec, _ := ByName("BFS", 0.25)
	spec.DriftFrac = 1.5
	if err := spec.Validate(16); err == nil {
		t.Fatal("DriftFrac > 1 accepted")
	}
}
