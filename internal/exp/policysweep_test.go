package exp

import (
	"fmt"
	"reflect"
	"testing"

	"starnuma/internal/core"
)

// sweepOpts is a policysweep configuration small enough for a test:
// one workload, short run, no cache (so worker scheduling is exercised
// rather than replayed).
func sweepOpts(jobs int) Options {
	o := Quick()
	o.Scale = 0.05
	o.Sim.Phases = 4
	o.Workloads = []string{"BFS"}
	o.Jobs = jobs
	return o
}

// TestPolicySweepDeterministicAcrossWorkers is the ISSUE 8 acceptance
// check: the tournament's ranking table must be bit-identical whether
// the (policy × plan × workload) grid runs on one worker or eight —
// parallel scheduling must not leak into results or ordering.
func TestPolicySweepDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	t1, err := NewRunner(sweepOpts(1)).PolicySweep()
	if err != nil {
		t.Fatal(err)
	}
	core.ResetWindowMemo() // simulate every window, not recall it
	t8, err := NewRunner(sweepOpts(8)).PolicySweep()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(t1.Rows, t8.Rows) {
		t.Errorf("ranking differs between 1 and 8 workers:\n1 worker:\n%s\n8 workers:\n%s",
			t1.Render(), t8.Render())
	}
	fmt.Print(t8.Render())

	// The zero-cost oracle must top the leaderboard: it pays nothing for
	// its whole-run-knowledge placement, so a dynamic policy beating it
	// would signal a modeling bug (CI asserts the same on a wider grid).
	if len(t8.Rows) == 0 || t8.Rows[0][1] != "oracle" {
		t.Errorf("oracle should rank first, got rows %v", t8.Rows)
	}
}
