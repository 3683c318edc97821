package workload

import (
	"math"
	"testing"

	"starnuma/internal/stats"
)

// refDraws is an independent reference for the draw kernel: a
// test-only copy of the per-access draw the generator made before the
// kernel existed — per-socket cumulative class weights, the math.Log
// gap, the linear class scan and the % page pick — verbatim. It shares
// only the page and sharer assignment with the generator it shadows.
type refDraws struct {
	g        *Generator
	classCum [][]float64
	classIdx [][]int
	rngs     []splitmix64
}

// newRefDraws builds the reference for g's current phase. It models no
// drift fallback: a socket without accessible pages fails the test.
func newRefDraws(t *testing.T, g *Generator, phase int) *refDraws {
	t.Helper()
	r := &refDraws{g: g, rngs: make([]splitmix64, len(g.rngs))}
	for core := range r.rngs {
		r.rngs[core] = splitmix64{state: mix(g.spec.Seed, uint64(core)+1, uint64(phase)+1)}
	}
	classPages := make([]float64, len(g.spec.Classes))
	for ci := range g.spec.Classes {
		classPages[ci] = float64(g.classEnd[ci] - g.classStart[ci])
	}
	shareOf := func(ci, s int) float64 {
		if stats.IsZero(classPages[ci]) {
			return 0
		}
		var sum float64
		for _, p := range g.pagesFor[ci][s] {
			sum += 1 / float64(len(g.sharersOf(ci, p)))
		}
		return sum / classPages[ci]
	}
	r.classCum = make([][]float64, g.sockets)
	r.classIdx = make([][]int, g.sockets)
	for s := 0; s < g.sockets; s++ {
		var cum float64
		for ci, c := range g.spec.Classes {
			if len(g.pagesFor[ci][s]) == 0 {
				continue
			}
			w := c.AccessShare * float64(g.sockets) * shareOf(ci, s)
			if w <= 0 {
				continue
			}
			cum += w
			r.classCum[s] = append(r.classCum[s], cum)
			r.classIdx[s] = append(r.classIdx[s], ci)
		}
		if len(r.classCum[s]) == 0 {
			t.Fatalf("%s: socket %d has no accessible pages; the reference models no drift fallback", g.spec.Name, s)
		}
		for i := range r.classCum[s] {
			r.classCum[s][i] /= cum
		}
	}
	return r
}

// next is the reference draw of core's next LLC miss.
func (r *refDraws) next(core int) Access {
	g := r.g
	rng := &r.rngs[core]
	socket := g.SocketOf(core)

	u := rng.float64v()
	gap := uint32(-g.meanGap*math.Log(1-u)) + 1
	if gap > MaxGap {
		gap = MaxGap
	}

	cum := r.classCum[socket]
	x := rng.float64v()
	lo := 0
	for lo < len(cum)-1 && cum[lo] < x {
		lo++
	}
	ci := r.classIdx[socket][lo]

	pages := g.pagesFor[ci][socket]
	page := pages[rng.intn(len(pages))]
	block := uint16(rng.intn(BlocksPerPage))
	write := rng.float64v() < g.spec.Classes[ci].WriteFrac
	return Access{Gap: gap, Page: page, Block: block, Write: write}
}

// checkAgainstReference records phase of spec on the given shape and
// compares the stream, and the draw-mode Next draws of a second
// generator, against the reference, core by core.
func checkAgainstReference(t *testing.T, name string, spec Spec, sockets, phase int, budget uint64) {
	t.Helper()
	rec, err := NewGenerator(spec, sockets, 4)
	if err != nil {
		t.Fatal(err)
	}
	rec.ResetPhase(phase)
	s := rec.record(budget)
	draws, err := NewGenerator(spec, sockets, 4)
	if err != nil {
		t.Fatal(err)
	}
	draws.ResetPhase(phase)
	ref := newRefDraws(t, rec, phase)
	for c := 0; c < rec.NumCores(); c++ {
		i := s.Off[c]
		for cum := uint64(0); cum < budget; i++ {
			want := ref.next(c)
			cum += uint64(want.Gap)
			if i >= s.Off[c+1] {
				t.Fatalf("%s phase %d core %d: recorded %d accesses, reference draws more", name, phase, c, s.Off[c+1]-s.Off[c])
			}
			if got := s.At(i); got != want {
				t.Fatalf("%s phase %d core %d access %d: recorded %+v, reference %+v", name, phase, c, i-s.Off[c], got, want)
			}
			if got := draws.Next(c); got != want {
				t.Fatalf("%s phase %d core %d access %d: Next drew %+v, reference %+v", name, phase, c, i-s.Off[c], got, want)
			}
		}
		if i != s.Off[c+1] {
			t.Fatalf("%s phase %d core %d: recorded %d accesses, reference %d", name, phase, c, s.Off[c+1]-s.Off[c], i-s.Off[c])
		}
	}
}

// The draw kernel, recording and drawing, reproduces the reference
// draw exactly: every suite workload at 16 and 32 sockets in every
// phase, and a drifting spec across two drift periods.
func TestKernelMatchesReferenceDraw(t *testing.T) {
	budget := uint64(20_000)
	if testing.Short() {
		budget = 5_000
	}
	for _, spec := range Suite(0.125) {
		for _, sockets := range []int{16, 32} {
			for phase := 0; phase < 4; phase++ {
				checkAgainstReference(t, spec.Name, spec, sockets, phase, budget)
			}
		}
	}
	spec, err := ByName("BFS", 0.125)
	if err != nil {
		t.Fatal(err)
	}
	spec.DriftFrac, spec.DriftPeriod = 0.5, 2
	for phase := 0; phase < 4; phase++ {
		checkAgainstReference(t, "drifting BFS", spec, 16, phase, budget)
	}
}
