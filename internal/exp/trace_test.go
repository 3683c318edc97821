package exp

import (
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"starnuma/internal/evtrace"
	"starnuma/internal/runner"
)

// countingReporter counts finished jobs.
type countingReporter struct{ done atomic.Int64 }

func (c *countingReporter) JobStarted(runner.JobInfo) {}

func (c *countingReporter) JobDone(runner.JobInfo, time.Duration, bool) { c.done.Add(1) }

// TestTraceOptionSetsUpPlumbing: Options.Trace is the only field a
// tracing caller sets. NewRunner turns on Sim.Trace, turns the result
// cache off, and records the runner lane without displacing the
// caller's Reporter.
func TestTraceOptionSetsUpPlumbing(t *testing.T) {
	opts := tinyOptions("BFS")
	opts.CacheDir = t.TempDir()
	opts.Trace = filepath.Join(t.TempDir(), "t.json")
	rep := &countingReporter{}
	opts.Reporter = rep

	r := NewRunner(opts)
	if got := r.Options(); !got.Sim.Trace || got.CacheDir != "" {
		t.Fatalf("Sim.Trace = %v, CacheDir = %q; want true and empty", got.Sim.Trace, got.CacheDir)
	}
	if _, err := r.Fig8a(); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteTrace(); err != nil {
		t.Fatal(err)
	}
	if rep.done.Load() == 0 {
		t.Error("the caller's Reporter saw no job")
	}
	if entries, _ := os.ReadDir(opts.CacheDir); len(entries) != 0 {
		t.Errorf("traced run wrote %d result-cache entries", len(entries))
	}
	data, err := os.ReadFile(opts.Trace)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := evtrace.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	events := make(map[string]int)
	for _, st := range tr.CatStats() {
		events[st.Cat] = st.Events
	}
	if events["runner"] == 0 || events["window"] == 0 {
		t.Errorf("trace lacks runner or window events: %v", events)
	}
}
