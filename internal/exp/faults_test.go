package exp

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestFaultSweepSmoke is the graceful-degradation acceptance pin: a
// quick faultsweep — including the dead-channel and dead-pool plans —
// completes without error or panic.
func TestFaultSweepSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	o := Quick()
	o.Workloads = []string{"BFS", "Masstree"}
	o.Sim.Phases = 4 // canned kill plans fire at phases 1-2
	r := NewRunner(o)
	tbl, err := r.FaultSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != len(o.Workloads)+1 { // + gmean row
		t.Fatalf("faultsweep produced %d rows", len(tbl.Rows))
	}
	fmt.Print(tbl.Render())
}

// TestFaultsFlag checks the -faults CLI path: a plan file parses into
// Options, and a broken one surfaces an error instead of a bad run.
func TestFaultsFlag(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "plan.json")
	if err := os.WriteFile(good, []byte(`{"name":"p","events":[
		{"kind":"flap","target":"cxl","from_phase":1,"period_ns":2000,"down_ns":300,"retry_ns":100}]}`), 0o644); err != nil {
		t.Fatal(err)
	}

	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	cf := AddCLIFlags(fs)
	if err := fs.Parse([]string{"-quick", "-faults", good}); err != nil {
		t.Fatal(err)
	}
	o, err := cf.Options(nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.Sim.Faults == nil || o.Sim.Faults.Name != "p" || len(o.Sim.Faults.Events) != 1 {
		t.Fatalf("plan not threaded into Options: %+v", o.Sim.Faults)
	}

	for _, tc := range []struct{ name, content string }{
		{"invalid", `{"events":[{"kind":"kill","target":"cxl"}]}`},
		{"malformed", `{`},
	} {
		bad := filepath.Join(dir, tc.name+".json")
		if err := os.WriteFile(bad, []byte(tc.content), 0o644); err != nil {
			t.Fatal(err)
		}
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		cf := AddCLIFlags(fs)
		if err := fs.Parse([]string{"-faults", bad}); err != nil {
			t.Fatal(err)
		}
		if _, err := cf.Options(nil); err == nil {
			t.Errorf("%s plan accepted", tc.name)
		}
	}
	fs2 := flag.NewFlagSet("t", flag.ContinueOnError)
	cf2 := AddCLIFlags(fs2)
	if err := fs2.Parse([]string{"-faults", filepath.Join(dir, "missing.json")}); err != nil {
		t.Fatal(err)
	}
	if _, err := cf2.Options(nil); err == nil {
		t.Error("missing plan file accepted")
	}
}
