package exp

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"starnuma/internal/core"
	"starnuma/internal/fault"
	"starnuma/internal/scenario"
)

// corpusFiles returns the repo's scenarios/*.json, sorted.
func corpusFiles(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob("../../scenarios/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 6 {
		t.Fatalf("scenario corpus has %d files, want at least 6", len(files))
	}
	sort.Strings(files)
	return files
}

// TestEveryScenarioValidates is the corpus gate: every file under
// scenarios/ must parse, validate and compile, its name must match its
// filename, and EXPERIMENTS.md's Scenarios section must list it — so a
// scenario cannot be added (or renamed) without staying runnable and
// documented.
func TestEveryScenarioValidates(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(doc)
	for _, file := range corpusFiles(t) {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		s, err := scenario.Parse(data)
		if err != nil {
			t.Errorf("%s: %v", file, err)
			continue
		}
		if _, err := scenario.Compile(s); err != nil {
			t.Errorf("%s: %v", file, err)
			continue
		}
		base := strings.TrimSuffix(filepath.Base(file), ".json")
		if s.Name != base {
			t.Errorf("%s: scenario name %q must match the filename", file, s.Name)
		}
		if s.Description == "" {
			t.Errorf("%s: scenario needs a description", file)
		}
		if !strings.Contains(text, "`"+base+"`") {
			t.Errorf("%s: not listed in EXPERIMENTS.md's Scenarios section (add `%s`)", file, base)
		}
	}
}

// TestScenarioEventsAreFaultPlans pins the single fault grammar: every
// corpus file's events array, wrapped as a -faults plan file under the
// scenario's name, parses to exactly the plan the scenario compiles
// into.
func TestScenarioEventsAreFaultPlans(t *testing.T) {
	for _, file := range corpusFiles(t) {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		s, err := scenario.Parse(data)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		c, err := scenario.Compile(s)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		var raw struct {
			Name   string          `json:"name"`
			Events json.RawMessage `json:"events"`
		}
		if err := json.Unmarshal(data, &raw); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if raw.Events == nil {
			if c.Cfg.Faults != nil {
				t.Errorf("%s: no events, but compiled plan %+v", file, c.Cfg.Faults)
			}
			continue
		}
		name, _ := json.Marshal(raw.Name)
		plan, err := fault.ParsePlan([]byte(`{"name": ` + string(name) + `, "events": ` + string(raw.Events) + `}`))
		if err != nil {
			t.Fatalf("%s: events are not a fault plan: %v", file, err)
		}
		if !reflect.DeepEqual(plan, c.Cfg.Faults) {
			t.Errorf("%s: plan file parses to %+v, scenario compiles to %+v", file, plan, c.Cfg.Faults)
		}
	}
}

// TestScenarioReferencesShareDrift pins that the references run the
// scenario's own specs: drift is part of the placement, so a drifting
// scenario without events equals its no-events reference exactly.
func TestScenarioReferencesShareDrift(t *testing.T) {
	s, err := scenario.Parse([]byte(`{
		"schema": "starnuma-scenario-v2", "name": "drift-ref",
		"sim": {"preset": "quick", "phases": 2, "scale": 0.02},
		"workloads": [{"name": "TPCC", "seed": 11, "drift_frac": 0.5, "drift_period": 1}],
		"assertions": [{"kind": "speedup", "vs": "no-events", "op": "==", "value": 1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	c, err := scenario.Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewRunner(Options{Jobs: 1}).RunScenario(c)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Pass {
		t.Fatalf("drifting run and its no-events reference differ: %+v", v.Workloads)
	}
}

// scnDeterminismDoc is a deliberately tiny scenario (one workload, two
// phases, every reference) so the worker-count pin stays cheap.
const scnDeterminismDoc = `{
	"schema": "starnuma-scenario-v2",
	"name": "determinism-pin",
	"sim": {"preset": "quick", "phases": 2, "scale": 0.02},
	"workloads": [{"name": "TPCC", "seed": 11}],
	"events": [
		{"kind": "degrade", "target": "cxl", "from_phase": 1, "latency_x": 2},
		{"kind": "capacity", "target": "pool", "from_phase": 1, "capacity_frac": 0.5}
	],
	"assertions": [
		{"kind": "ipc", "op": ">", "value": 0},
		{"kind": "speedup", "vs": "no-events", "op": "<=", "value": 1.5},
		{"kind": "speedup", "vs": "baseline", "op": ">", "value": 0},
		{"kind": "metric", "metric": "migrate/migrations", "op": ">=", "value": 0},
		{"kind": "drain_complete"}
	]}`

// TestScenarioVerdictWorkerCountInvariant pins the determinism
// contract: the same scenario under the same seed produces
// byte-identical verdict manifests at 1 and at 8 worker slots.
func TestScenarioVerdictWorkerCountInvariant(t *testing.T) {
	s, err := scenario.Parse([]byte(scnDeterminismDoc))
	if err != nil {
		t.Fatal(err)
	}
	c, err := scenario.Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	encode := func(jobs int) []byte {
		r := NewRunner(Options{Jobs: jobs})
		v, err := r.RunScenario(c)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		b, err := v.Encode()
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		return b
	}
	serial := encode(1)
	core.ResetWindowMemo() // simulate every window, not recall it
	parallel := encode(8)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("verdict differs across worker counts:\njobs=1:\n%s\njobs=8:\n%s", serial, parallel)
	}
	v, err := scenario.DecodeVerdict(serial)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Pass {
		t.Fatalf("determinism pin scenario should pass:\n%s", serial)
	}
}

// TestRunScenarioCorpusSmoke runs the full corpus end to end in short
// mode's complement: each scenario must pass its own assertions. This
// is the same check CI's scenario step performs through the CLI.
func TestRunScenarioCorpusSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus smoke is a long test")
	}
	r := NewRunner(Options{})
	for _, file := range corpusFiles(t) {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		s, err := scenario.Parse(data)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		c, err := scenario.Compile(s)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		v, err := r.RunScenario(c)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if !v.Pass {
			for _, chk := range v.Failed() {
				t.Errorf("%s:%d: %s", file, chk.Line, chk.Detail)
			}
		}
	}
}
