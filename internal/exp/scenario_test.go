package exp

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"starnuma/internal/core"
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

// scnDeterminismDoc is a deliberately tiny scenario (one workload, two
// phases, every reference) so the worker-count pin stays cheap.
const scnDeterminismDoc = `{
	"schema": "starnuma-scenario-v1",
	"name": "determinism-pin",
	"sim": {"preset": "quick", "phases": 2, "scale": 0.02},
	"workloads": [{"name": "TPCC", "seed": 11}],
	"events": [
		{"action": "degrade-link", "target": "cxl", "at_phase": 1, "latency_x": 2},
		{"action": "pool-capacity", "at_phase": 1, "capacity_frac": 0.5}
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
