package runner

import (
	"bytes"
	"testing"

	"starnuma/internal/core"
	"starnuma/internal/evtrace"
	"starnuma/internal/fault"
	"starnuma/internal/tracker"
)

// TestDeterminismAcrossWorkerCounts runs the Fig. 8a variant set
// (baseline, StarNUMA/T0, StarNUMA/T16) for one workload at 1, 2 and 8
// workers and requires byte-identical serialized Results: worker count
// must never influence measured numbers, only wall time.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	spec := tinySpec(t, "CC")

	cfgB := tinySim()
	cfgB.Policy = core.PolicyPerfectBaseline
	cfgT16 := tinySim()
	cfgT16.Policy = core.PolicyStarNUMA
	cfgT0 := cfgT16
	cfgT0.Tracker = tracker.T0

	jobs := []Job{
		{Label: "baseline/CC", Sys: core.BaselineSystem(), Cfg: cfgB, Spec: spec},
		{Label: "starnuma-t0/CC", Sys: core.StarNUMASystem(), Cfg: cfgT0, Spec: spec},
		{Label: "starnuma-t16/CC", Sys: core.StarNUMASystem(), Cfg: cfgT16, Spec: spec},
	}

	var ref []byte
	for _, workers := range []int{1, 2, 8} {
		core.ResetWindowMemo() // simulate every window, not recall it
		results, err := New(Config{Jobs: workers}).RunAll(jobs)
		if err != nil {
			t.Fatalf("jobs=%d: %v", workers, err)
		}
		b := mustJSON(t, results)
		if ref == nil {
			ref = b
			continue
		}
		if string(b) != string(ref) {
			t.Fatalf("results at jobs=%d differ from jobs=1:\njobs=1: %s\njobs=%d: %s",
				workers, ref, workers, b)
		}
	}
}

// TestFaultDeterminismAcrossWorkerCounts is the fault-injection analogue
// of the pin above: the same fault plan + seed must serialize to
// identical bytes at 1 and 8 workers (ISSUE acceptance criterion).
func TestFaultDeterminismAcrossWorkerCounts(t *testing.T) {
	spec := tinySpec(t, "CC")

	cfg := tinySim()
	cfg.Policy = core.PolicyStarNUMA
	cfg.Phases = 4
	cfgFlap := cfg
	cfgFlap.Faults = fault.FlapPlan()
	cfgKill := cfg
	cfgKill.Faults = fault.DeadChannelPlan(0)

	jobs := []Job{
		{Label: "flap/CC", Sys: core.StarNUMASystem(), Cfg: cfgFlap, Spec: spec},
		{Label: "deadch/CC", Sys: core.StarNUMASystem(), Cfg: cfgKill, Spec: spec},
	}

	var ref []byte
	for _, workers := range []int{1, 8} {
		core.ResetWindowMemo() // simulate every window, not recall it
		results, err := New(Config{Jobs: workers}).RunAll(jobs)
		if err != nil {
			t.Fatalf("jobs=%d: %v", workers, err)
		}
		b := mustJSON(t, results)
		if ref == nil {
			ref = b
			continue
		}
		if string(b) != string(ref) {
			t.Fatalf("fault results at jobs=%d differ from jobs=1:\njobs=1: %s\njobs=%d: %s",
				workers, ref, workers, b)
		}
	}
}

// TestTraceDeterminismAcrossWorkerCounts is the event-trace analogue:
// with SimConfig.Trace enabled, the encoded simulation trace must be
// byte-identical at 1 and 8 workers. Only the sim-time lanes are
// compared — the runner's wall-clock lane is explicitly exempt from
// byte stability.
func TestTraceDeterminismAcrossWorkerCounts(t *testing.T) {
	spec := tinySpec(t, "CC")

	cfg := tinySim()
	cfg.Policy = core.PolicyStarNUMA
	cfg.Phases = 4
	cfg.Trace = true
	cfgB := tinySim()
	cfgB.Policy = core.PolicyPerfectBaseline
	cfgB.Trace = true
	// Flapping CXL ports put sampled fault-adjusted sends in the trace;
	// which sends get sampled must not depend on scratch recycling.
	cfgFlap := cfg
	cfgFlap.Faults = fault.FlapPlan()

	jobs := []Job{
		{Label: "baseline/CC", Sys: core.BaselineSystem(), Cfg: cfgB, Spec: spec},
		{Label: "starnuma-t16/CC", Sys: core.StarNUMASystem(), Cfg: cfg, Spec: spec},
		{Label: "starnuma-t16-flap/CC", Sys: core.StarNUMASystem(), Cfg: cfgFlap, Spec: spec},
	}

	encode := func(results []*core.Result) []byte {
		t.Helper()
		bd := evtrace.NewBuilder()
		for i, r := range results {
			if r.Trace == nil {
				t.Fatalf("%s: Trace=true but Result.Trace is nil", jobs[i].Label)
			}
			bd.Add(jobs[i].Label, r.Trace)
		}
		b, err := bd.Build().Encode()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	var ref []byte
	for _, workers := range []int{1, 8} {
		results, err := New(Config{Jobs: workers}).RunAll(jobs)
		if err != nil {
			t.Fatalf("jobs=%d: %v", workers, err)
		}
		b := encode(results)
		if ref == nil {
			ref = b
			continue
		}
		if !bytes.Equal(b, ref) {
			t.Fatalf("traces at jobs=%d differ from jobs=1 (%d vs %d bytes)",
				workers, len(b), len(ref))
		}
	}
}

// TestAttribDeterminismAcrossWorkerCounts is the stall-attribution
// analogue: with SimConfig.Attrib enabled, the serialized Results —
// including the per-window attribution profile — must be byte-identical
// at 1 and 8 workers, and every profile must conserve stall time
// exactly (ISSUE acceptance criterion).
func TestAttribDeterminismAcrossWorkerCounts(t *testing.T) {
	spec := tinySpec(t, "CC")

	cfg := tinySim()
	cfg.Policy = core.PolicyStarNUMA
	cfg.Attrib = true
	cfgB := tinySim()
	cfgB.Policy = core.PolicyPerfectBaseline
	cfgB.Attrib = true

	jobs := []Job{
		{Label: "baseline/CC", Sys: core.BaselineSystem(), Cfg: cfgB, Spec: spec},
		{Label: "starnuma-t16/CC", Sys: core.StarNUMASystem(), Cfg: cfg, Spec: spec},
	}

	var ref []byte
	for _, workers := range []int{1, 8} {
		core.ResetWindowMemo() // simulate every window, not recall it
		results, err := New(Config{Jobs: workers}).RunAll(jobs)
		if err != nil {
			t.Fatalf("jobs=%d: %v", workers, err)
		}
		for i, r := range results {
			if r.Profile == nil {
				t.Fatalf("%s: Attrib=true but Result.Profile is nil", jobs[i].Label)
			}
			if err := r.Profile.CheckConservation(); err != nil {
				t.Fatalf("%s at jobs=%d: %v", jobs[i].Label, workers, err)
			}
		}
		b := mustJSON(t, results)
		if ref == nil {
			ref = b
			continue
		}
		if string(b) != string(ref) {
			t.Fatalf("attributed results at jobs=%d differ from jobs=1 (%d vs %d bytes)",
				workers, len(b), len(ref))
		}
	}
}
