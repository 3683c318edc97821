package scenario

import (
	"strings"
	"testing"
)

// FuzzParseScenario pins the parser's contract: arbitrary bytes never
// panic, and every rejection is a scenario-prefixed error (so failures
// name the layer, and field errors name the field).
func FuzzParseScenario(f *testing.F) {
	f.Add([]byte(validDoc))
	f.Add([]byte(assertDoc))
	f.Add([]byte(``))
	f.Add([]byte(`{}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"schema": "starnuma-scenario-v2"}`))
	f.Add([]byte(`{"schema": "starnuma-scenario-v2", "name": "x", "workloads": [{"name": "BFS"}], "assertions": [{"kind": "ipc", "op": ">", "value": 0}], "unknown": 1}`))
	f.Add([]byte(strings.Replace(validDoc, `"capacity_frac": 0.5`, `"capacity_frac": 1e308`, 1)))
	f.Add([]byte(strings.Replace(validDoc, `"from_phase": 1`, `"from_phase": -9`, 1)))
	// One seed per fault kind, each event in the -faults plan grammar.
	for _, ev := range []string{
		`{"kind": "degrade", "target": "cxl:s3", "from_phase": 1, "to_phase": 2, "from_ns": 100, "to_ns": 900, "bandwidth_div": 2}`,
		`{"kind": "flap", "target": "link", "from_phase": 0, "period_ns": 2000, "down_ns": 300, "retry_ns": 100}`,
		`{"kind": "kill", "target": "pool:ch1", "from_phase": 1}`,
		`{"kind": "capacity", "target": "pool", "from_phase": 1, "to_phase": 2, "capacity_frac": 0.5}`,
	} {
		f.Add([]byte(`{"schema": "starnuma-scenario-v2", "name": "x", "workloads": [{"name": "BFS"}], "events": [` +
			ev + `], "assertions": [{"kind": "ipc", "op": ">", "value": 0}]}`))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "scenario:") {
				t.Fatalf("error without scenario prefix: %v", err)
			}
			return
		}
		// Accepted documents must survive the rest of the pipeline
		// without panicking: hashing, line attribution and compilation.
		if s.Hash() == "" {
			t.Fatal("accepted scenario has empty hash")
		}
		for i := range s.Assertions {
			s.LineOf(i)
		}
		if _, err := Compile(s); err != nil &&
			!strings.HasPrefix(err.Error(), "scenario:") {
			t.Fatalf("compile error without scenario prefix: %v", err)
		}
	})
}
