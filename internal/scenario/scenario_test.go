package scenario

import (
	"strings"
	"testing"
)

// validDoc is a full-featured scenario exercising every section.
const validDoc = `{
  "schema": "starnuma-scenario-v2",
  "name": "test-full",
  "description": "exercises every section",
  "system": {
    "base": "starnuma",
    "sockets": 8,
    "sockets_per_chassis": 4,
    "pool_capacity_fraction": 0.25,
    "pool_channels": 4
  },
  "sim": {"preset": "quick", "phases": 3, "scale": 0.05},
  "workloads": [
    {"name": "BFS", "drift_frac": 0.3, "drift_period": 1},
    {"name": "TPCC", "scale": 0.04, "seed": 7}
  ],
  "events": [
    {"kind": "degrade", "target": "cxl", "from_phase": 1, "latency_x": 2},
    {"kind": "flap", "target": "upi", "from_phase": 1, "to_phase": 2,
     "period_ns": 1000, "down_ns": 100, "retry_ns": 50},
    {"kind": "capacity", "target": "pool", "from_phase": 1, "capacity_frac": 0.5}
  ],
  "assertions": [
    {"kind": "ipc", "op": ">", "value": 0.01},
    {"kind": "speedup", "vs": "no-events", "op": "<=", "value": 1.5},
    {"kind": "fault_counter", "counter": "degraded_sends", "op": ">=", "value": 1, "workload": "BFS"},
    {"kind": "drain_complete"}
  ]
}
`

func TestParseValid(t *testing.T) {
	s, err := Parse([]byte(validDoc))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if s.Name != "test-full" || len(s.Workloads) != 2 || len(s.Events) != 3 || len(s.Assertions) != 4 {
		t.Fatalf("parsed shape wrong: %+v", s)
	}
}

func TestParseRejects(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string // substring the error must carry (the offending field)
	}{
		{"empty", ``, "parse"},
		{"not json", `nonsense`, "parse"},
		{"wrong schema", `{"schema": "v0", "name": "x", "workloads": [{"name": "BFS"}],
			"assertions": [{"kind": "ipc", "op": ">", "value": 0}]}`, "schema"},
		{"unknown field", `{"schema": "starnuma-scenario-v2", "name": "x", "typo_field": 1,
			"workloads": [{"name": "BFS"}],
			"assertions": [{"kind": "ipc", "op": ">", "value": 0}]}`, "typo_field"},
		{"trailing data", validDoc + `{"more": true}`, "trailing data"},
		{"no name", `{"schema": "starnuma-scenario-v2", "workloads": [{"name": "BFS"}],
			"assertions": [{"kind": "ipc", "op": ">", "value": 0}]}`, "name"},
		{"bad base", `{"schema": "starnuma-scenario-v2", "name": "x",
			"system": {"base": "quantum"}, "workloads": [{"name": "BFS"}],
			"assertions": [{"kind": "ipc", "op": ">", "value": 0}]}`, "system.base"},
		{"pool override on baseline", `{"schema": "starnuma-scenario-v2", "name": "x",
			"system": {"base": "baseline", "pool_channels": 4}, "workloads": [{"name": "BFS"}],
			"assertions": [{"kind": "ipc", "op": ">", "value": 0}]}`, "system.pool_channels"},
		{"no workloads", `{"schema": "starnuma-scenario-v2", "name": "x",
			"assertions": [{"kind": "ipc", "op": ">", "value": 0}]}`, "workloads"},
		{"unknown workload", `{"schema": "starnuma-scenario-v2", "name": "x",
			"workloads": [{"name": "NOPE"}],
			"assertions": [{"kind": "ipc", "op": ">", "value": 0}]}`, "workloads[0].name"},
		{"duplicate workload", `{"schema": "starnuma-scenario-v2", "name": "x",
			"workloads": [{"name": "BFS"}, {"name": "BFS"}],
			"assertions": [{"kind": "ipc", "op": ">", "value": 0}]}`, "workloads[1].name"},
		{"v1 document", `{"schema": "starnuma-scenario-v1", "name": "x",
			"workloads": [{"name": "BFS"}],
			"events": [{"action": "degrade-link", "target": "cxl", "at_phase": 1, "latency_x": 2}],
			"assertions": [{"kind": "ipc", "op": ">", "value": 0}]}`, "scenario: schema:"},
		{"drift out of range", `{"schema": "starnuma-scenario-v2", "name": "x",
			"workloads": [{"name": "BFS", "drift_frac": 1.5}],
			"assertions": [{"kind": "ipc", "op": ">", "value": 0}]}`, "workloads[0].drift_frac"},
		{"bad action", `{"schema": "starnuma-scenario-v2", "name": "x",
			"workloads": [{"name": "BFS"}],
			"events": [{"kind": "explode"}],
			"assertions": [{"kind": "ipc", "op": ">", "value": 0}]}`, `events: fault: event 0: unknown kind "explode"`},
		{"flap without period", `{"schema": "starnuma-scenario-v2", "name": "x",
			"workloads": [{"name": "BFS"}],
			"events": [{"kind": "flap", "target": "cxl"}],
			"assertions": [{"kind": "ipc", "op": ">", "value": 0}]}`, "period_ns"},
		{"capacity out of range", `{"schema": "starnuma-scenario-v2", "name": "x",
			"workloads": [{"name": "BFS"}],
			"events": [{"kind": "capacity", "target": "pool", "capacity_frac": 1.5}],
			"assertions": [{"kind": "ipc", "op": ">", "value": 0}]}`, "capacity_frac"},
		{"kill on pool-less base", `{"schema": "starnuma-scenario-v2", "name": "x",
			"system": {"base": "baseline"}, "workloads": [{"name": "BFS"}],
			"events": [{"kind": "kill", "target": "pool"}],
			"assertions": [{"kind": "ipc", "op": ">", "value": 0}]}`, "events[0]"},
		{"overlapping degrades", `{"schema": "starnuma-scenario-v2", "name": "x",
			"workloads": [{"name": "BFS"}],
			"events": [
				{"kind": "degrade", "target": "cxl", "latency_x": 2},
				{"kind": "degrade", "target": "cxl", "latency_x": 3}],
			"assertions": [{"kind": "ipc", "op": ">", "value": 0}]}`, "overlap"},
		{"no assertions", `{"schema": "starnuma-scenario-v2", "name": "x",
			"workloads": [{"name": "BFS"}]}`, "assertions"},
		{"bad op", `{"schema": "starnuma-scenario-v2", "name": "x",
			"workloads": [{"name": "BFS"}],
			"assertions": [{"kind": "ipc", "op": "~", "value": 0}]}`, "assertions[0].op"},
		{"bad kind", `{"schema": "starnuma-scenario-v2", "name": "x",
			"workloads": [{"name": "BFS"}],
			"assertions": [{"kind": "vibes", "op": ">", "value": 0}]}`, "assertions[0].kind"},
		{"metric without name", `{"schema": "starnuma-scenario-v2", "name": "x",
			"workloads": [{"name": "BFS"}],
			"assertions": [{"kind": "metric", "op": ">", "value": 0}]}`, "assertions[0].metric"},
		{"counter on wrong kind", `{"schema": "starnuma-scenario-v2", "name": "x",
			"workloads": [{"name": "BFS"}],
			"assertions": [{"kind": "ipc", "counter": "drained_pages", "op": ">", "value": 0}]}`,
			"assertions[0].counter"},
		{"assertion names unplaced workload", `{"schema": "starnuma-scenario-v2", "name": "x",
			"workloads": [{"name": "BFS"}],
			"assertions": [{"kind": "ipc", "workload": "TPCC", "op": ">", "value": 0}]}`,
			"assertions[0].workload"},
		{"drain_complete with op", `{"schema": "starnuma-scenario-v2", "name": "x",
			"workloads": [{"name": "BFS"}],
			"assertions": [{"kind": "drain_complete", "op": "<"}]}`, "assertions[0]"},
		{"stall_frac unknown category", `{"schema": "starnuma-scenario-v2", "name": "x",
			"workloads": [{"name": "BFS"}],
			"assertions": [{"kind": "stall_frac", "category": "vibes", "op": ">", "value": 0.5}]}`,
			"assertions[0].category"},
		{"stall_frac out of range", `{"schema": "starnuma-scenario-v2", "name": "x",
			"workloads": [{"name": "BFS"}],
			"assertions": [{"kind": "stall_frac", "category": "cxl-queue", "op": ">", "value": 1.5}]}`,
			"assertions[0].value"},
		{"category on wrong kind", `{"schema": "starnuma-scenario-v2", "name": "x",
			"workloads": [{"name": "BFS"}],
			"assertions": [{"kind": "ipc", "category": "cxl-queue", "op": ">", "value": 0}]}`,
			"assertions[0].category"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.doc))
			if err == nil {
				t.Fatalf("Parse accepted invalid doc")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name %q", err, tc.want)
			}
		})
	}
}

func TestLineOf(t *testing.T) {
	s, err := Parse([]byte(validDoc))
	if err != nil {
		t.Fatal(err)
	}
	// The assertions array in validDoc starts on line 25; each assertion
	// is one line.
	lines := strings.Split(validDoc, "\n")
	for i := 0; i < len(s.Assertions); i++ {
		ln := s.LineOf(i)
		if ln == 0 {
			t.Fatalf("assertion %d has no line", i)
		}
		if !strings.Contains(lines[ln-1], `"kind"`) {
			t.Errorf("assertion %d attributed to line %d: %q", i, ln, lines[ln-1])
		}
	}
	if s.LineOf(-1) != 0 || s.LineOf(len(s.Assertions)) != 0 {
		t.Error("out-of-range LineOf should return 0")
	}
}

func TestHashFormattingInsensitive(t *testing.T) {
	a, err := Parse([]byte(validDoc))
	if err != nil {
		t.Fatal(err)
	}
	// Same document, one line, different key spacing.
	compact := strings.Join(strings.Fields(validDoc), " ")
	b, err := Parse([]byte(compact))
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash() == "" || a.Hash() != b.Hash() {
		t.Fatalf("hash should be formatting-insensitive: %q vs %q", a.Hash(), b.Hash())
	}
	// But content-sensitive.
	c := *a
	c.Name = "other"
	if c.Hash() == a.Hash() {
		t.Fatal("hash ignored a content change")
	}
}
