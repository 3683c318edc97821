package workload

import (
	"testing"
)

// Accesses at every edge of the packed ranges survive RecordStream → At
// unchanged.
func TestPackedRoundTrip(t *testing.T) {
	want := []Access{
		{Gap: 1, Page: 0, Block: 0, Write: false},
		{Gap: MaxGap, Page: MaxFootprintPages - 1, Block: BlocksPerPage - 1, Write: true},
		{Gap: 1, Page: MaxFootprintPages - 1, Block: 0, Write: true},
		{Gap: MaxGap, Page: 0, Block: BlocksPerPage - 1, Write: false},
		{Gap: 300, Page: 12345, Block: 33, Write: true},
	}
	var budget uint64
	for _, a := range want {
		budget += uint64(a.Gap)
	}
	// Two cores replaying the same records, so the pre-grow path runs.
	idx := make([]int, 2)
	s := RecordStream(2, budget, func(core int) Access {
		a := want[idx[core]]
		idx[core]++
		return a
	})
	for c := 0; c < 2; c++ {
		if n := int(s.Off[c+1] - s.Off[c]); n != len(want) {
			t.Fatalf("core %d recorded %d accesses, want %d", c, n, len(want))
		}
		for i, a := range want {
			if got := s.At(s.Off[c] + int32(i)); got != a {
				t.Errorf("core %d access %d: got %+v, want %+v", c, i, got, a)
			}
		}
	}
}

// A footprint past what a packed word addresses is a spec error, not a
// recording panic.
func TestFootprintLimit(t *testing.T) {
	spec, err := ByName("BFS", 1)
	if err != nil {
		t.Fatal(err)
	}
	spec.FootprintPages = MaxFootprintPages + 1
	if _, err := NewGenerator(spec, 16, 4); err == nil {
		t.Fatal("NewGenerator accepted a footprint past MaxFootprintPages")
	}
	spec.FootprintPages = MaxFootprintPages
	if err := spec.Validate(16); err != nil {
		t.Fatalf("footprint of exactly MaxFootprintPages rejected: %v", err)
	}
	// Masstree's 49152 default pages pass the limit at a scale of 700.
	if _, err := ByName("Masstree", 700); err == nil {
		t.Fatal("ByName accepted a scale past the footprint limit")
	}
}

// The stream cache charges a stream what it holds: every array's
// capacity, pre-grow slack included.
func TestStreamBytesCountsCapacity(t *testing.T) {
	g := mustGen(t, "TC", 16, 4)
	s := g.PhaseStream(0, 20_000)
	want := int64(cap(s.Off))*4 + int64(cap(s.GapM1))*2 + int64(cap(s.Words))*4
	if got := s.bytes(); got != want {
		t.Fatalf("bytes() = %d, want %d", got, want)
	}
	if cap(s.Words) == len(s.Words) {
		t.Fatal("recording left no pre-grow slack; the test no longer tells cap from len")
	}
	if StreamCache().ResidentBytes < want {
		t.Fatalf("stream cache holds %d bytes, less than one stream's %d", StreamCache().ResidentBytes, want)
	}
}

// drawn returns the accesses a fresh draw-mode generator yields for
// each core of phase, up to the first whose cumulative gap reaches
// budget — what a recording at budget must hold.
func drawn(t *testing.T, spec Spec, sockets, cps, phase int, budget uint64) [][]Access {
	t.Helper()
	g, err := NewGenerator(spec, sockets, cps)
	if err != nil {
		t.Fatal(err)
	}
	g.ResetPhase(phase)
	out := make([][]Access, g.NumCores())
	for c := range out {
		for cum := uint64(0); cum < budget; {
			a := g.Next(c)
			cum += uint64(a.Gap)
			out[c] = append(out[c], a)
		}
	}
	return out
}

// checkStream compares a recorded stream core by core against want.
func checkStream(t *testing.T, name string, s *PhaseStream, want [][]Access) {
	t.Helper()
	if len(s.Off) != len(want)+1 {
		t.Fatalf("%s: %d cores recorded, want %d", name, len(s.Off)-1, len(want))
	}
	for c, w := range want {
		if n := int(s.Off[c+1] - s.Off[c]); n != len(w) {
			t.Fatalf("%s core %d: %d accesses recorded, %d drawn", name, c, n, len(w))
		}
		for i, a := range w {
			if got := s.At(s.Off[c] + int32(i)); got != a {
				t.Fatalf("%s core %d access %d: recorded %+v, drawn %+v", name, c, i, got, a)
			}
		}
	}
}

// Every suite workload's recorded stream, and a drifting spec's across
// a drift-period boundary, replays exactly the draws a fresh generator
// makes.
func TestRecordedStreamMatchesDraws(t *testing.T) {
	const budget = 30_000
	for _, spec := range Suite(0.125) {
		g, err := NewGenerator(spec, 16, 4)
		if err != nil {
			t.Fatal(err)
		}
		checkStream(t, spec.Name, g.PhaseStream(1, budget), drawn(t, spec, 16, 4, 1, budget))
	}
	spec, err := ByName("BFS", 0.125)
	if err != nil {
		t.Fatal(err)
	}
	spec.DriftFrac, spec.DriftPeriod = 0.5, 2
	g, err := NewGenerator(spec, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, phase := range []int{1, 2} {
		checkStream(t, "drifting BFS", g.PhaseStream(phase, budget), drawn(t, spec, 16, 4, phase, budget))
	}
}
