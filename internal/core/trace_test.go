package core

import (
	"bytes"
	"testing"

	"starnuma/internal/evtrace"
)

// TestTraceOffBitIdentical pins the zero-overhead contract: with
// Trace=false the Result is byte-identical to a config that never heard
// of tracing (the field is json:"-", so this is the same check the
// cache key performs).
func TestTraceOffBitIdentical(t *testing.T) {
	sys := StarNUMASystem()
	cfg := faultSim()
	want := resultJSON(t, sys, cfg, "BFS")
	cfg.Trace = false // explicit, same as zero value
	ResetWindowMemo() // simulate the windows again, not recall them
	got := resultJSON(t, sys, cfg, "BFS")
	if !bytes.Equal(want, got) {
		t.Fatalf("trace-off config perturbed the result:\n%s\n%s", want, got)
	}
}

// TestTracePassive pins that recording a trace never changes the
// simulation: Trace=true yields the same Result JSON as Trace=false
// (Result.Trace is json:"-", so the comparison sees only model state).
func TestTracePassive(t *testing.T) {
	sys := StarNUMASystem()
	cfg := faultSim()
	off := resultJSON(t, sys, cfg, "BFS")
	cfg.Trace = true
	on := resultJSON(t, sys, cfg, "BFS")
	if !bytes.Equal(off, on) {
		t.Fatalf("tracing perturbed the result:\noff: %s\non:  %s", off, on)
	}
}

// TestTraceRecordsExpectedCategories runs a small simulation with
// tracing on and checks the assembled buffer covers every event source
// threaded through core: checkpoint windows, step-B phases, migration
// decisions and coherence transactions.
func TestTraceRecordsExpectedCategories(t *testing.T) {
	sys := StarNUMASystem()
	cfg := faultSim()
	cfg.Trace = true
	res, err := Run(sys, cfg, tinySpec(t, "BFS"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("Trace=true but Result.Trace is nil")
	}
	cats := make(map[string]int)
	for _, e := range res.Trace.Events {
		cats[e.Cat]++
		if e.Ts < 0 || e.Dur < 0 {
			t.Fatalf("negative time in event %+v", e)
		}
	}
	for _, want := range []string{"window", "phase", "migrate", "coherence"} {
		if cats[want] == 0 {
			t.Errorf("no %q events recorded (got %v)", want, cats)
		}
	}

	// The assembled trace must pass schema validation end to end.
	bd := evtrace.NewBuilder()
	bd.Add("test/BFS", res.Trace)
	tr := bd.Build()
	if err := tr.Validate(); err != nil {
		t.Fatalf("assembled trace invalid: %v", err)
	}
	if _, err := tr.Encode(); err != nil {
		t.Fatal(err)
	}
}

// TestTraceDeterministic pins byte-stable traces: two runs of the same
// config encode to identical bytes.
func TestTraceDeterministic(t *testing.T) {
	sys := StarNUMASystem()
	cfg := faultSim()
	cfg.Trace = true
	encode := func() []byte {
		t.Helper()
		res, err := Run(sys, cfg, tinySpec(t, "BFS"))
		if err != nil {
			t.Fatal(err)
		}
		bd := evtrace.NewBuilder()
		bd.Add("test/BFS", res.Trace)
		b, err := bd.Build().Encode()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := encode(), encode()
	if !bytes.Equal(a, b) {
		t.Fatal("same config produced different trace bytes")
	}
}
