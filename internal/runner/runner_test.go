package runner

import (
	"encoding/json"
	"testing"

	"starnuma/internal/core"
	"starnuma/internal/workload"
)

// tinySim returns a configuration small enough for unit tests.
func tinySim() core.SimConfig {
	c := core.DefaultSim()
	c.Phases = 2
	c.PhaseInstr = 200_000
	c.TimedInstr = 20_000
	c.WarmupInstr = 2_000
	return c
}

func tinySpec(t *testing.T, name string) workload.Spec {
	t.Helper()
	spec, err := workload.ByName(name, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRunMatchesSequential checks the central determinism contract: the
// parallel scheduler produces the exact Result of the sequential
// core.Run path.
func TestRunMatchesSequential(t *testing.T) {
	sys := core.StarNUMASystem()
	cfg := tinySim()
	cfg.Policy = core.PolicyStarNUMA
	spec := tinySpec(t, "BFS")

	want, err := core.Run(sys, cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	core.ResetWindowMemo() // simulate the windows again, not recall them
	got, err := New(Config{Jobs: 4}).Run("test/BFS", sys, cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if w, g := mustJSON(t, want), mustJSON(t, got); string(w) != string(g) {
		t.Fatalf("parallel result differs from sequential:\nseq: %s\npar: %s", w, g)
	}
}

// TestRunAll checks input-order results and the progress counters.
func TestRunAll(t *testing.T) {
	cfgB := tinySim()
	cfgB.Policy = core.PolicyPerfectBaseline
	cfgS := tinySim()
	cfgS.Policy = core.PolicyStarNUMA
	spec := tinySpec(t, "TC")

	r := New(Config{Jobs: 2})
	results, err := r.RunAll([]Job{
		{Label: "baseline/TC", Sys: core.BaselineSystem(), Cfg: cfgB, Spec: spec},
		{Label: "starnuma/TC", Sys: core.StarNUMASystem(), Cfg: cfgS, Spec: spec},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	if !results[0].Policy.Is("baseline-perfect") || !results[1].Policy.Is("starnuma") {
		t.Fatalf("results out of input order: %v, %v", results[0].Policy, results[1].Policy)
	}

	m := r.Metrics()
	if m.RunsStarted != 2 || m.RunsDone != 2 {
		t.Fatalf("runs started/done = %d/%d, want 2/2", m.RunsStarted, m.RunsDone)
	}
	wantWindows := int64(2 * cfgB.Phases)
	if m.WindowsDone != wantWindows {
		t.Fatalf("windows done = %d, want %d", m.WindowsDone, wantWindows)
	}
	if m.CacheHits != 0 || m.CacheMisses != 0 {
		t.Fatalf("cache counters %d/%d without a cache", m.CacheHits, m.CacheMisses)
	}
	if m.CacheHitRate() != 0 {
		t.Fatalf("hit rate = %v without cache traffic", m.CacheHitRate())
	}
}

// TestRunErrorPropagates checks that an invalid job surfaces its error.
func TestRunErrorPropagates(t *testing.T) {
	sys := core.BaselineSystem()
	sys.CoresPerSocket = 0 // invalid
	cfg := tinySim()
	if _, err := New(Config{Jobs: 2}).Run("bad", sys, cfg, tinySpec(t, "BFS")); err == nil {
		t.Fatal("invalid system accepted")
	}
}

func TestJobKindString(t *testing.T) {
	if KindRun.String() != "run" || KindWindow.String() != "window" {
		t.Fatal("JobKind.String wrong")
	}
}
