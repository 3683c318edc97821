package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestThroughputPrefersExplicitField(t *testing.T) {
	r := benchReport{SuiteSeconds: 100, WindowsDone: 500, WindowsPerSec: 7.5}
	got, err := throughput(r)
	if err != nil {
		t.Fatal(err)
	}
	if got != 7.5 {
		t.Fatalf("throughput = %v, want the explicit 7.5", got)
	}
}

func TestThroughputRejectsUnmeasurableReports(t *testing.T) {
	cases := []benchReport{
		{SuiteSeconds: 100, WindowsDone: 0},  // full cache hit
		{SuiteSeconds: 0, WindowsDone: 500},  // no wall time
		{SuiteSeconds: -1, WindowsDone: 500}, // nonsense
	}
	for _, r := range cases {
		if _, err := throughput(r); err == nil {
			t.Errorf("throughput(%+v) accepted an unmeasurable report", r)
		}
	}
}

func TestVerdictFailsOnRegression(t *testing.T) {
	fail, _, summary := verdict(10.0, 8.9, 0.10, 0.10) // -11%
	if !fail {
		t.Fatalf("11%% drop passed the 10%% gate (summary: %s)", summary)
	}
}

func TestVerdictAllowsSmallDrop(t *testing.T) {
	fail, warn, _ := verdict(10.0, 9.5, 0.10, 0.10) // -5%
	if fail {
		t.Fatal("5% drop failed the 10% gate")
	}
	if warn != "" {
		t.Fatalf("5%% drop produced a staleness warning: %s", warn)
	}
}

func TestVerdictWarnsOnStaleBaseline(t *testing.T) {
	fail, warn, _ := verdict(2.0, 8.0, 0.10, 0.10) // +300%
	if fail {
		t.Fatal("a 4x gain failed the gate")
	}
	if warn == "" {
		t.Fatal("a 4x gain produced no stale-baseline warning")
	}
	if !strings.Contains(warn, "regenerate") {
		t.Fatalf("warning does not tell the user what to do: %s", warn)
	}
}

func TestVerdictBoundaryIsInclusive(t *testing.T) {
	// Exactly -10% must pass: the gate fails only strictly beyond it.
	fail, _, _ := verdict(10.0, 9.0, 0.10, 0.10)
	if fail {
		t.Fatal("exactly -10% failed a 10% gate")
	}
}

func TestCompareExperimentsSkipsZeroWindows(t *testing.T) {
	base := benchReport{Experiments: []benchExperiment{
		{ID: "fig2", Windows: 0, WindowsPerSec: 0},
		{ID: "fig8a", Windows: 64, WindowsPerSec: 8.0},
		{ID: "fig9", Windows: 64, WindowsPerSec: 8.0},
	}}
	fresh := benchReport{Experiments: []benchExperiment{
		{ID: "fig2", Windows: 0, WindowsPerSec: 0},
		{ID: "fig8a", Windows: 64, WindowsPerSec: 7.9},
		{ID: "fig9", Windows: 0, WindowsPerSec: 0}, // cache recall this run
	}}
	lines, skipped, fail := compareExperiments(base, fresh, 0.25)
	if len(lines) != 1 {
		t.Fatalf("compared %d experiments, want 1: %v", len(lines), lines)
	}
	if skipped != 2 {
		t.Fatalf("skipped = %d, want 2", skipped)
	}
	if fail {
		t.Fatal("a ~1% drop failed the 25% per-experiment gate")
	}
}

func TestCompareExperimentsFailsOnBigDrop(t *testing.T) {
	base := benchReport{Experiments: []benchExperiment{{ID: "fig8a", Windows: 64, WindowsPerSec: 8.0}}}
	fresh := benchReport{Experiments: []benchExperiment{{ID: "fig8a", Windows: 64, WindowsPerSec: 4.0}}}
	_, _, fail := compareExperiments(base, fresh, 0.25)
	if !fail {
		t.Fatal("a 50% per-experiment drop passed the 25% gate")
	}
	// Report-only mode never fails.
	if _, _, fail := compareExperiments(base, fresh, 0); fail {
		t.Fatal("report-only mode (max-exp-drop 0) failed the gate")
	}
}

// A baseline written before the report carried its memory fields still
// reads, and the gate still measures it.
func TestBaselineWithoutMemoryFieldsReads(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.json")
	old := `{"suite_seconds": 100, "windows_done": 500, "windows_per_sec": 5, "experiments": []}`
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := readBenchReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if r.StreamCacheBytes != 0 || r.StreamCacheEvictions != 0 || r.PeakRSSMB != 0 {
		t.Fatalf("absent memory fields read as %d bytes, %d evictions, %v MB",
			r.StreamCacheBytes, r.StreamCacheEvictions, r.PeakRSSMB)
	}
	if got, err := throughput(r); err != nil || got != 5 {
		t.Fatalf("throughput = %v, %v; want 5", got, err)
	}
}
