package workload

import (
	"sync"
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
	// Two cores replaying the same records, so one run starts past 0.
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
// capacity, slack included. Recordings are exactly sized, so the slack
// here comes from RecordStream's append growth.
func TestStreamBytesCountsCapacity(t *testing.T) {
	s := RecordStream(3, 1000, func(int) Access { return Access{Gap: 1} })
	if cap(s.GapM1) == len(s.GapM1) || cap(s.Words) == len(s.Words) {
		t.Fatal("append growth left no slack; the test no longer tells cap from len")
	}
	want := int64(cap(s.Off))*4 + int64(cap(s.GapM1))*2 + int64(cap(s.Words))*4
	if got := s.bytes(); got != want {
		t.Fatalf("bytes() = %d, want %d", got, want)
	}
	key := streamKey{sig: t.Name()}
	before := StreamCache().ResidentBytes
	if got := streamCache.Do(key, func() *PhaseStream { return s }); got != s {
		t.Fatal("the stream cache did not return the stream it recorded")
	}
	defer streamCache.Delete(key)
	if held := StreamCache().ResidentBytes - before; held != want {
		t.Fatalf("stream cache charged %d bytes for a stream of %d", held, want)
	}
}

// Two generators that miss the same stream at once share one
// recording: each phase is recorded once, and both generators replay
// the one stream.
func TestConcurrentLoadsRecordOnce(t *testing.T) {
	spec, err := ByName("TC", 0.125)
	if err != nil {
		t.Fatal(err)
	}
	spec.Seed ^= 0x5F11647 // a stream no other test has cached
	const budget = 200_000
	for phase := 0; phase < 4; phase++ {
		var gens [2]*Generator
		for i := range gens {
			if gens[i], err = NewGenerator(spec, 16, 4); err != nil {
				t.Fatal(err)
			}
		}
		before := StreamRecordings()
		var streams [2]*PhaseStream
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i, g := range gens {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				streams[i] = g.PhaseStream(phase, budget)
			}()
		}
		close(start)
		wg.Wait()
		if n := StreamRecordings() - before; n != 1 {
			t.Fatalf("phase %d recorded %d times by two concurrent loads, want once", phase, n)
		}
		if streams[0] != streams[1] {
			t.Fatalf("phase %d: the two generators replay different streams", phase)
		}
		// A rerun of the test must record the stream again.
		streamCache.Delete(streamKey{sig: gens[0].StreamSig(budget), phase: phase})
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
