package scenario

import (
	"bytes"
	"strings"
	"testing"

	"starnuma/internal/core"
	"starnuma/internal/metrics"
)

const assertDoc = `{
	"schema": "starnuma-scenario-v2", "name": "assert-test",
	"sim": {"phases": 3},
	"workloads": [{"name": "BFS"}, {"name": "TPCC"}],
	"events": [{"kind": "capacity", "target": "pool", "from_phase": 1, "capacity_frac": 0.5}],
	"assertions": [
		{"kind": "ipc", "op": ">", "value": 0.1},
		{"kind": "mpki", "workload": "BFS", "op": "<", "value": 50},
		{"kind": "speedup", "vs": "no-events", "op": "<=", "value": 1.0, "workload": "BFS"},
		{"kind": "metric", "metric": "migrate/pages_to_pool", "op": ">=", "value": 5, "workload": "BFS"},
		{"kind": "fault_counter", "counter": "drained_pages", "op": ">=", "value": 1, "workload": "BFS"},
		{"kind": "drain_complete", "workload": "BFS"}
	]}`

// fakeRuns builds a RunSet whose BFS result drained pages down to the
// squeezed capacity.
func fakeRuns(c *Compiled) RunSet {
	cap := c.drainCapacity("BFS")
	bfs := &core.Result{
		Workload: "BFS", IPC: 0.5, MPKI: 32, PoolPages: cap,
		FaultDrainedPages: 100,
		Metrics: &metrics.Snapshot{
			Counters: map[string]uint64{"migrate/pages_to_pool": 10},
		},
	}
	tpcc := &core.Result{Workload: "TPCC", IPC: 0.9, MPKI: 4}
	return RunSet{
		Results: map[string]*core.Result{"BFS": bfs, "TPCC": tpcc},
		Ref: map[string]*core.Result{
			"BFS":  {Workload: "BFS", IPC: 0.6},
			"TPCC": {Workload: "TPCC", IPC: 0.9},
		},
	}
}

func TestEvaluatePass(t *testing.T) {
	c := mustCompile(t, assertDoc)
	v, err := c.Evaluate(fakeRuns(c))
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if !v.Pass {
		for _, chk := range v.Failed() {
			t.Errorf("unexpected failure: %s", chk.Detail)
		}
		t.Fatal("verdict should pass")
	}
	// The unrestricted ipc assertion expands across both placements; the
	// rest are BFS-only: 2 + 5 = 7 checks.
	if len(v.Checks) != 7 {
		t.Fatalf("checks = %d, want 7", len(v.Checks))
	}
	if len(v.Workloads) != 2 || v.Workloads[0].Workload != "BFS" {
		t.Fatalf("workload outcomes = %+v", v.Workloads)
	}
	if got := v.Workloads[0].SpeedupVsNoEvents; got <= 0.83 || got >= 0.84 {
		t.Errorf("speedup vs no-events = %v, want 0.5/0.6", got)
	}
	if !strings.HasPrefix(v.Summary(), "PASS assert-test") {
		t.Errorf("summary = %q", v.Summary())
	}
}

func TestEvaluateFailureDetail(t *testing.T) {
	c := mustCompile(t, assertDoc)
	rs := fakeRuns(c)
	rs.Results["BFS"].FaultDrainedPages = 0 // fails the fault_counter check
	rs.Results["BFS"].PoolPages = 1 << 30   // fails drain_complete
	v, err := c.Evaluate(rs)
	if err != nil {
		t.Fatal(err)
	}
	if v.Pass {
		t.Fatal("verdict should fail")
	}
	failed := v.Failed()
	if len(failed) != 2 {
		t.Fatalf("failed = %+v", failed)
	}
	fc := failed[0]
	if fc.Kind != KindFaultCounter || fc.Line == 0 {
		t.Errorf("first failure = %+v", fc)
	}
	if !strings.Contains(fc.Detail, "drained_pages") ||
		!strings.Contains(fc.Detail, "FAILED: expected >= 1, got 0") {
		t.Errorf("detail not actionable: %q", fc.Detail)
	}
	dc := failed[1]
	if dc.Kind != KindDrainComplete || dc.Op != "<=" || dc.Pass {
		t.Errorf("drain failure = %+v", dc)
	}
	if !strings.HasPrefix(v.Summary(), "FAIL assert-test (2/7") {
		t.Errorf("summary = %q", v.Summary())
	}
}

func TestEvaluateMissingResult(t *testing.T) {
	c := mustCompile(t, assertDoc)
	rs := fakeRuns(c)
	delete(rs.Results, "TPCC")
	if _, err := c.Evaluate(rs); err == nil || !strings.Contains(err.Error(), "TPCC") {
		t.Fatalf("missing result error = %v", err)
	}
}

func TestEvaluateMissingReference(t *testing.T) {
	c := mustCompile(t, assertDoc)
	rs := fakeRuns(c)
	rs.Ref = nil
	v, err := c.Evaluate(rs)
	if err != nil {
		t.Fatal(err)
	}
	// The speedup check fails (reference unavailable) but evaluation
	// completes.
	if v.Pass {
		t.Fatal("verdict should fail without the reference")
	}
	found := false
	for _, chk := range v.Failed() {
		if chk.Kind == KindSpeedup && strings.Contains(chk.Detail, "unavailable") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no speedup-unavailable failure in %+v", v.Failed())
	}
}

func TestVerdictEncodeDeterministic(t *testing.T) {
	c := mustCompile(t, assertDoc)
	v1, err := c.Evaluate(fakeRuns(c))
	if err != nil {
		t.Fatal(err)
	}
	v2, err := c.Evaluate(fakeRuns(c))
	if err != nil {
		t.Fatal(err)
	}
	b1, err := v1.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := v2.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("verdict bytes differ across evaluations")
	}
	back, err := DecodeVerdict(b1)
	if err != nil {
		t.Fatal(err)
	}
	if back.Hash != v1.Hash || back.Pass != v1.Pass || len(back.Checks) != len(v1.Checks) {
		t.Fatal("verdict round trip lost state")
	}
	if _, err := DecodeVerdict([]byte("{")); err == nil {
		t.Fatal("DecodeVerdict accepted corrupt input")
	}
}

func TestLookupMetricOrder(t *testing.T) {
	s := &metrics.Snapshot{
		Counters:   map[string]uint64{"x": 1},
		Gauges:     map[string]float64{"x": 2, "g": 2.5},
		Histograms: map[string]metrics.Histogram{"h": {Count: 2, Sum: 10}},
		Series:     map[string][]metrics.Point{"s": {{T: 0, V: 1}, {T: 1, V: 2}}},
	}
	cases := []struct {
		name string
		want float64
	}{
		{"x", 1},   // counter shadows the gauge
		{"g", 2.5}, // gauge
		{"h", 5},   // histogram mean
		{"s", 3},   // series point sum
	}
	for _, tc := range cases {
		got, ok := lookupMetric(s, tc.name)
		if !ok || got != tc.want {
			t.Errorf("lookupMetric(%q) = %v/%v, want %v", tc.name, got, ok, tc.want)
		}
	}
	if _, ok := lookupMetric(s, "absent"); ok {
		t.Error("absent metric resolved")
	}
	if _, ok := lookupMetric(nil, "x"); ok {
		t.Error("nil snapshot resolved")
	}
}

func TestDrainCapacityReflectsSqueeze(t *testing.T) {
	squeezed := mustCompile(t, assertDoc)
	calm := mustCompile(t, `{
		"schema": "starnuma-scenario-v2", "name": "calm",
		"sim": {"phases": 3},
		"workloads": [{"name": "BFS"}, {"name": "TPCC"}],
		"assertions": [{"kind": "drain_complete", "workload": "BFS"}]}`)
	sq, full := squeezed.drainCapacity("BFS"), calm.drainCapacity("BFS")
	if full <= 0 || sq != full/2 {
		t.Fatalf("squeezed capacity %d, full %d (want half)", sq, full)
	}
}
