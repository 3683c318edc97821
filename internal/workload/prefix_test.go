package workload_test

import (
	"testing"

	"starnuma/internal/core"
	"starnuma/internal/workload"
)

// A recording at the timed budget is, core by core, a prefix of the
// recording at the phase budget: both replay one deterministic draw
// sequence and stop at the first access reaching their budget. This is
// what would let step C read step B's stream instead of recording its
// own.
func TestTimedStreamIsPhaseStreamPrefix(t *testing.T) {
	cfgs := []core.SimConfig{core.QuickSim()}
	if !testing.Short() {
		cfgs = append(cfgs, core.DefaultSim())
	}
	for _, cfg := range cfgs {
		for _, name := range []string{"BFS", "Masstree"} {
			spec, err := workload.ByName(name, 0.125)
			if err != nil {
				t.Fatal(err)
			}
			g, err := workload.NewGenerator(spec, 16, 4)
			if err != nil {
				t.Fatal(err)
			}
			timed := g.PhaseStream(2, cfg.TimedInstr)
			full := g.PhaseStream(2, cfg.PhaseInstr)
			for c := 0; c < g.NumCores(); c++ {
				n := timed.Off[c+1] - timed.Off[c]
				if n > full.Off[c+1]-full.Off[c] {
					t.Fatalf("%s core %d: timed stream longer than phase stream", name, c)
				}
				for i := int32(0); i < n; i++ {
					if a, b := timed.At(timed.Off[c]+i), full.At(full.Off[c]+i); a != b {
						t.Fatalf("%s core %d access %d: timed %+v, phase %+v", name, c, i, a, b)
					}
				}
			}
		}
	}
}
