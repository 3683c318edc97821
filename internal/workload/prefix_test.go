package workload_test

import (
	"fmt"
	"testing"

	"starnuma/internal/core"
	"starnuma/internal/workload"
)

// Step C reads each phase through the prefix the stream cache keeps of
// step B's phase-budget recording (PhaseStream.Prefix, ReleasePhase).
// That is exact only if a recording at the timed budget is, core by
// core, a prefix of the recording at the phase budget: both replay one
// deterministic draw sequence and stop at the first access reaching
// their budget. Every suite workload at 16 and 32 sockets, and a
// drifting spec across two drift periods, must have the property.
func TestTimedStreamIsPhaseStreamPrefix(t *testing.T) {
	quick := core.QuickSim()
	for _, sockets := range []int{16, 32} {
		for _, spec := range workload.Suite(0.125) {
			checkPrefix(t, spec, sockets, quick, 2)
		}
	}
	spec, err := workload.ByName("BFS", 0.125)
	if err != nil {
		t.Fatal(err)
	}
	spec.DriftFrac, spec.DriftPeriod = 0.5, 2
	checkPrefix(t, spec, 16, quick, 0, 1, 2, 3)
	if !testing.Short() {
		for _, name := range []string{"BFS", "Masstree"} {
			spec, err := workload.ByName(name, 0.125)
			if err != nil {
				t.Fatal(err)
			}
			checkPrefix(t, spec, 16, core.DefaultSim(), 2)
		}
	}
}

// checkPrefix requires, for each phase, that the phase-budget stream's
// Prefix at the timed budget, and the prefix ReleasePhase leaves in the
// stream cache, both equal a fresh recording at the timed budget from
// draw-mode Next, which no cache touches.
func checkPrefix(t *testing.T, spec workload.Spec, sockets int, cfg core.SimConfig, phases ...int) {
	t.Helper()
	g, err := workload.NewGenerator(spec, sockets, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, phase := range phases {
		name := fmt.Sprintf("%s drift %v at %d sockets, phase %d, budget %d",
			spec.Name, spec.DriftFrac, sockets, phase, cfg.TimedInstr)
		cut := g.PhaseStream(phase, cfg.PhaseInstr).Prefix(cfg.TimedInstr)
		g.ReleasePhase(phase, cfg.PhaseInstr, cfg.TimedInstr)
		kept := g.PhaseStream(phase, cfg.TimedInstr)
		g.SetPhaseBudget(0)
		g.ResetPhase(phase)
		fresh := workload.RecordStream(g.NumCores(), cfg.TimedInstr, g.Next)
		equalStreams(t, name+": Prefix", cut, fresh)
		equalStreams(t, name+": released", kept, fresh)
	}
}

// equalStreams requires got and want to hold the same arrays, Off
// included.
func equalStreams(t *testing.T, name string, got, want *workload.PhaseStream) {
	t.Helper()
	if i := firstDiff(got.Off, want.Off); i >= 0 {
		t.Fatalf("%s: Off differs at %d of %d/%d", name, i, len(got.Off), len(want.Off))
	}
	if i := firstDiff(got.GapM1, want.GapM1); i >= 0 {
		t.Fatalf("%s: GapM1 differs at %d of %d/%d", name, i, len(got.GapM1), len(want.GapM1))
	}
	if i := firstDiff(got.Words, want.Words); i >= 0 {
		t.Fatalf("%s: Words differs at %d of %d/%d", name, i, len(got.Words), len(want.Words))
	}
}

// firstDiff returns the first index where a and b differ, or -1 when
// they are equal.
func firstDiff[T comparable](a, b []T) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}
