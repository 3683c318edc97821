package trace

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"starnuma/internal/core"
	"starnuma/internal/workload"
)

// TestReplayMatchesGenerator drives the trace-driven pipeline end to
// end: two phases dumped with DumpPhase and replayed through
// core.RunSource must reproduce core.Run on the live generator byte for
// byte, stall-attribution profile included.
func TestReplayMatchesGenerator(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full pipeline three times over")
	}
	cfg := core.QuickSim()
	cfg.Phases = 2
	cfg.Instrument = true
	sys := core.StarNUMASystem()
	for _, name := range []string{"TPCC", "BFS", "Masstree"} {
		t.Run(name, func(t *testing.T) {
			spec, err := workload.ByName(name, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			gen, err := workload.NewGenerator(spec, 16, 4)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			var paths []string
			for phase := 0; phase < cfg.Phases; phase++ {
				path := filepath.Join(dir, fmt.Sprintf("p%d.sntr", phase))
				f, err := os.Create(path)
				if err != nil {
					t.Fatal(err)
				}
				_, err = DumpPhase(gen, phase, cfg.PhaseInstr, f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
				if err != nil {
					t.Fatal(err)
				}
				paths = append(paths, path)
			}
			src, err := NewSource(spec, 16, 4, paths)
			if err != nil {
				t.Fatal(err)
			}
			fromTrace, err := core.RunSource(sys, cfg, src)
			if err != nil {
				t.Fatal(err)
			}
			fromGen, err := core.Run(sys, cfg, spec)
			if err != nil {
				t.Fatal(err)
			}
			if fromGen.Profile == nil {
				t.Fatal("no attribution profile with Instrument on")
			}
			want, err := json.Marshal(fromGen)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(fromTrace)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatalf("trace replay result differs from the generator's:\ntrace: %.400s\ngen:   %.400s", got, want)
			}
		})
	}
}
