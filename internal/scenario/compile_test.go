package scenario

import (
	"reflect"
	"strings"
	"testing"

	"starnuma/internal/core"
)

func mustParse(t *testing.T, doc string) *Scenario {
	t.Helper()
	s, err := Parse([]byte(doc))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return s
}

func mustCompile(t *testing.T, doc string) *Compiled {
	t.Helper()
	c, err := Compile(mustParse(t, doc))
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return c
}

func TestCompileFull(t *testing.T) {
	c := mustCompile(t, validDoc)

	// System overrides landed.
	if c.Sys.Topology.Sockets != 8 || c.Sys.Topology.SocketsPerChassis != 4 {
		t.Errorf("topology shape = %d/%d", c.Sys.Topology.Sockets, c.Sys.Topology.SocketsPerChassis)
	}
	if c.Sys.Pool.CapacityFraction != 0.25 || c.Sys.Pool.Channels != 4 {
		t.Errorf("pool overrides lost: %+v", c.Sys.Pool)
	}
	if c.Cfg.Phases != 3 {
		t.Errorf("phases = %d", c.Cfg.Phases)
	}

	// The events became the scenario run's fault plan, and the no-events
	// reference is the scenario run's configuration without it.
	if c.Cfg.Faults == nil || len(c.Cfg.Faults.Events) != 3 || c.Cfg.Faults.Name != "test-full" {
		t.Fatalf("fault plan = %+v", c.Cfg.Faults)
	}
	ref := c.Cfg
	ref.Faults = nil
	if !reflect.DeepEqual(ref, c.RefCfg) {
		t.Errorf("no-events reference differs from the run beyond its fault plan:\nrun: %+v\nref: %+v", ref, c.RefCfg)
	}

	// BFS's drift is part of its placement, so the references, which
	// run over the same Specs, drift with it.
	if len(c.Specs) != 2 {
		t.Fatalf("specs = %d", len(c.Specs))
	}
	if c.Specs[0].Name != "BFS" || c.Specs[0].DriftFrac != 0.3 || c.Specs[0].DriftPeriod != 1 {
		t.Errorf("BFS drift lost: %+v", c.Specs[0])
	}
	if c.Specs[1].Name != "TPCC" || c.Specs[1].DriftFrac != 0 {
		t.Errorf("TPCC should not drift: %+v", c.Specs[1])
	}
	if c.Specs[1].Seed != 7 {
		t.Errorf("TPCC seed override lost: %d", c.Specs[1].Seed)
	}

	// The speedup assertion is vs no-events, so only Ref is needed, and
	// no metric assertion means no instrumentation.
	if !c.NeedsRef || c.NeedsBase {
		t.Errorf("NeedsRef/NeedsBase = %v/%v", c.NeedsRef, c.NeedsBase)
	}
	if c.Cfg.CollectMetrics {
		t.Error("CollectMetrics should be off without metric assertions")
	}
	if c.Hash == "" || c.Hash != c.Scenario.Hash() {
		t.Error("compiled hash must match the scenario hash")
	}
}

func TestCompileBaselineSpeedupAndMetrics(t *testing.T) {
	c := mustCompile(t, `{
		"schema": "starnuma-scenario-v2", "name": "x",
		"workloads": [{"name": "BFS"}],
		"assertions": [
			{"kind": "speedup", "vs": "baseline", "op": ">", "value": 1},
			{"kind": "metric", "metric": "migrate/pages_to_pool", "op": ">=", "value": 0}
		]}`)
	if !c.NeedsBase || c.NeedsRef {
		t.Errorf("NeedsBase/NeedsRef = %v/%v", c.NeedsBase, c.NeedsRef)
	}
	if !c.Cfg.CollectMetrics {
		t.Error("metric assertion must enable CollectMetrics")
	}
	// The baseline runs the perfect-baseline policy on a pool-less system
	// with the scenario's topology shape.
	if !c.BaseCfg.Policy.Is("baseline-perfect") {
		t.Errorf("base policy = %v", c.BaseCfg.Policy)
	}
	if c.BaseSys.Topology.HasPool {
		t.Error("baseline system must be pool-less")
	}
	if c.BaseSys.Topology.Sockets != c.Sys.Topology.Sockets ||
		c.BaseSys.Topology.SocketsPerChassis != c.Sys.Topology.SocketsPerChassis {
		t.Error("baseline topology shape should match the scenario's")
	}
}

// TestCompileSingleSocketBaseline pins the "vs baseline" reference of a
// single-socket scenario to the paper's baseline machine: its sockets
// and its chassis shape, not 16 sockets in 16 one-socket chassis.
func TestCompileSingleSocketBaseline(t *testing.T) {
	c := mustCompile(t, `{
		"schema": "starnuma-scenario-v2", "name": "x",
		"system": {"base": "single-socket"},
		"workloads": [{"name": "BFS"}],
		"assertions": [{"kind": "speedup", "vs": "baseline", "op": ">", "value": 0}]}`)
	if c.Sys.Topology.Sockets != 1 {
		t.Fatalf("scenario sockets = %d", c.Sys.Topology.Sockets)
	}
	if want := core.BaselineSystem().Topology; !reflect.DeepEqual(c.BaseSys.Topology, want) {
		t.Errorf("base topology = %+v, want the paper baseline's %+v", c.BaseSys.Topology, want)
	}
}

// TestCompileRejectsMissingPoolChannel pins that a kill of a pool
// channel the system does not have fails compilation with the fault
// layer's error, and that a wider pool accepts the same event.
func TestCompileRejectsMissingPoolChannel(t *testing.T) {
	doc := func(system string) string {
		return `{"schema": "starnuma-scenario-v2", "name": "x",
			"system": ` + system + `,
			"workloads": [{"name": "BFS"}],
			"events": [{"kind": "kill", "target": "pool:ch2", "from_phase": 1}],
			"assertions": [{"kind": "ipc", "op": ">", "value": 0}]}`
	}
	_, err := Compile(mustParse(t, doc(`{"base": "starnuma"}`)))
	if err == nil {
		t.Fatal("kill of pool:ch2 on a 2-channel pool compiled")
	}
	for _, want := range []string{"scenario: events:", "event 0", "2 channels"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	mustCompile(t, doc(`{"base": "starnuma", "pool_channels": 3}`))
}

func TestCompileDeterministic(t *testing.T) {
	a := mustCompile(t, validDoc)
	b := mustCompile(t, validDoc)
	if a.Hash != b.Hash {
		t.Fatal("hash differs across compiles")
	}
	if len(a.Specs) != len(b.Specs) {
		t.Fatal("spec count differs")
	}
	for i := range a.Specs {
		if a.Specs[i].Name != b.Specs[i].Name || a.Specs[i].Seed != b.Specs[i].Seed {
			t.Fatalf("spec %d differs", i)
		}
	}
}

func TestCompileInvalid(t *testing.T) {
	s := mustParse(t, validDoc)
	s.System.Base = "quantum"
	if _, err := Compile(s); err == nil {
		t.Fatal("Compile accepted an invalid scenario")
	}
}

func TestCompileStallFracEnablesAttrib(t *testing.T) {
	c := mustCompile(t, `{
		"schema": "starnuma-scenario-v2", "name": "x",
		"workloads": [{"name": "BFS"}],
		"assertions": [
			{"kind": "stall_frac", "category": "cxl-queue", "op": ">=", "value": 0.1}
		]}`)
	if !c.Cfg.Attrib {
		t.Error("stall_frac assertion must enable Attrib")
	}
	if !c.RefCfg.Attrib {
		t.Error("the no-events reference must share the Attrib flag (same cache-key methodology)")
	}
	if c.Cfg.CollectMetrics {
		t.Error("stall_frac must not drag CollectMetrics along")
	}
	// And absent a stall_frac assertion, the ledger stays off.
	c2 := mustCompile(t, `{
		"schema": "starnuma-scenario-v2", "name": "x",
		"workloads": [{"name": "BFS"}],
		"assertions": [{"kind": "ipc", "op": ">", "value": 0}]}`)
	if c2.Cfg.Attrib {
		t.Error("Attrib should be off without stall_frac assertions")
	}
}
