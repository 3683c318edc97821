package core

import (
	"encoding/json"
	"testing"

	"starnuma/internal/workload"
)

func metricsTestConfig(collect bool) (SystemConfig, SimConfig, workload.Spec) {
	sys := StarNUMASystem()
	cfg := QuickSim()
	cfg.Phases = 2
	cfg.PhaseInstr = 200_000
	cfg.TimedInstr = 20_000
	cfg.WarmupInstr = 2_000
	cfg.Instrument = collect
	spec, err := workload.ByName("BFS", 0.05)
	if err != nil {
		panic(err)
	}
	return sys, cfg, spec
}

// stripMetrics re-encodes a result with the Metrics and Profile fields
// cleared.
func stripMetrics(t *testing.T, r *Result) string {
	t.Helper()
	c := *r
	c.Metrics, c.Profile = nil, nil
	b, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestMetricsOffLeavesResultNil checks collection is genuinely off by
// default: no registry is built, Result.Metrics stays nil.
func TestMetricsOffLeavesResultNil(t *testing.T) {
	sys, cfg, spec := metricsTestConfig(false)
	res, err := Run(sys, cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics != nil {
		t.Errorf("metrics collected with Instrument=false: %v", res.Metrics.Names())
	}
}

// TestMetricsDoNotPerturbResults is the tentpole's acceptance test:
// simulation results must be bit-identical with collection on or off.
func TestMetricsDoNotPerturbResults(t *testing.T) {
	sys, cfgOff, spec := metricsTestConfig(false)
	_, cfgOn, _ := metricsTestConfig(true)
	off, err := Run(sys, cfgOff, spec)
	if err != nil {
		t.Fatal(err)
	}
	on, err := Run(sys, cfgOn, spec)
	if err != nil {
		t.Fatal(err)
	}
	if on.Metrics.Empty() {
		t.Fatal("Instrument=true produced no metrics")
	}
	if a, b := stripMetrics(t, off), stripMetrics(t, on); a != b {
		t.Errorf("results differ with metrics on vs off:\noff: %s\non:  %s", a, b)
	}
}

// TestMetricsDeterministic pins byte-identical metric dumps (and JSON
// encodings) across two identical runs — the determinism contract
// `starnuma metrics diff` relies on.
func TestMetricsDeterministic(t *testing.T) {
	sys, cfg, spec := metricsTestConfig(true)
	r1, err := Run(sys, cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	ResetWindowMemo() // simulate the windows again, not recall them
	r2, err := Run(sys, cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if d1, d2 := r1.Metrics.Dump(), r2.Metrics.Dump(); d1 != d2 {
		t.Errorf("metric dumps differ across identical runs:\n%s\n---\n%s", d1, d2)
	}
	b1, err := r1.Metrics.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := r2.Metrics.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Error("metric JSON encodings differ across identical runs")
	}
}

// TestMetricsCoverSubsystems spot-checks that each instrumented layer
// actually reported into the merged snapshot.
func TestMetricsCoverSubsystems(t *testing.T) {
	sys, cfg, spec := metricsTestConfig(true)
	res, err := Run(sys, cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	for _, name := range []string{
		"sim/events_fired",
		"coherence/transactions",
		"tlb/walks",
		"tracker/flushes",
	} {
		if _, ok := m.Counters[name]; !ok {
			t.Errorf("counter %q missing", name)
		}
	}
	if _, ok := m.Histograms["sim/queue_depth"]; !ok {
		t.Error("histogram sim/queue_depth missing")
	}
	for _, name := range []string{"core/instructions", "migrate/migrations"} {
		if len(m.Series[name]) == 0 {
			t.Errorf("series %q missing", name)
		}
	}
	// Every per-kind event counter plus link/llc hierarchies exist.
	var haveLink, haveLLC, haveMem, haveKind bool
	for name := range m.Counters {
		switch {
		case len(name) > 5 && name[:5] == "link/":
			haveLink = true
		case len(name) > 4 && name[:4] == "llc/":
			haveLLC = true
		case len(name) > 4 && name[:4] == "mem/":
			haveMem = true
		case len(name) > 11 && name[:11] == "sim/events/":
			haveKind = true
		}
	}
	if !haveLink || !haveLLC || !haveMem || !haveKind {
		t.Errorf("missing hierarchy: link=%v llc=%v mem=%v kind=%v",
			haveLink, haveLLC, haveMem, haveKind)
	}
}
