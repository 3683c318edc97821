package core

import (
	"encoding/json"
	"math"
	"testing"

	"starnuma/internal/topology"
	"starnuma/internal/workload"
)

func planFor(t *testing.T, sys SystemConfig, cfg SimConfig, spec workload.Spec) (*Plan, func() AccessSource) {
	t.Helper()
	sockets := topology.New(sys.Topology).Sockets()
	newGen := func() AccessSource {
		gen, err := workload.NewGenerator(spec, sockets, sys.CoresPerSocket)
		if err != nil {
			t.Fatal(err)
		}
		return gen
	}
	p, err := NewPlan(sys, cfg, newGen())
	if err != nil {
		t.Fatal(err)
	}
	return p, newGen
}

// TestAssembleEmptyIsZeroNotNaN: a degenerate run with no windows (no
// retired instructions, no IPC samples) must report zero aggregates,
// never NaN — downstream speedup ratios and JSON encoding both choke on
// NaN.
func TestAssembleEmptyIsZeroNotNaN(t *testing.T) {
	cfg := tinySim()
	cfg.Policy = PolicyStarNUMA
	p, _ := planFor(t, StarNUMASystem(), cfg, tinySpec(t, "BFS"))
	res := p.Assemble(nil)
	if math.IsNaN(res.IPC) || res.IPC != 0 {
		t.Fatalf("IPC of empty assembly = %v, want 0", res.IPC)
	}
	if math.IsNaN(res.MPKI) || res.MPKI != 0 {
		t.Fatalf("MPKI of empty assembly = %v, want 0", res.MPKI)
	}
	if _, err := json.Marshal(res); err != nil {
		t.Fatalf("empty result not JSON-encodable: %v", err)
	}
}

// TestOutOfOrderWindowsAssembleIdentically executes the plan's windows
// in reverse order, each on a private fresh generator, and requires the
// assembled Result to match the sequential RunSource byte for byte —
// the contract internal/runner's concurrent scheduling rests on.
func TestOutOfOrderWindowsAssembleIdentically(t *testing.T) {
	sys := StarNUMASystem()
	cfg := tinySim()
	cfg.Policy = PolicyStarNUMA
	spec := tinySpec(t, "SSSP")

	want, err := Run(sys, cfg, spec)
	if err != nil {
		t.Fatal(err)
	}

	ResetWindowMemo() // simulate the windows again, not recall them
	p, newGen := planFor(t, sys, cfg, spec)
	n := p.NumWindows()
	if n != cfg.Phases {
		t.Fatalf("NumWindows = %d, want %d", n, cfg.Phases)
	}
	windows := make([]Window, n)
	for i := n - 1; i >= 0; i-- {
		windows[i] = p.RunWindow(i, newGen())
	}
	got := p.Assemble(windows)

	wb, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(wb) != string(gb) {
		t.Fatalf("out-of-order assembly differs:\nseq: %s\nrev: %s", wb, gb)
	}
}
