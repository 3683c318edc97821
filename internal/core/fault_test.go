package core

import (
	"encoding/json"
	"strings"
	"testing"

	"starnuma/internal/fault"
)

// faultSim returns a tiny configuration with enough phases for the
// canned plans (which start at phases 1-2) to matter.
func faultSim() SimConfig {
	c := tinySim()
	c.Phases = 4
	return c
}

func resultJSON(t *testing.T, sys SystemConfig, cfg SimConfig, name string) []byte {
	t.Helper()
	res, err := Run(sys, cfg, tinySpec(t, name))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestEmptyFaultPlanBitIdentical pins the zero-overhead contract: a nil
// plan and an empty plan produce byte-identical Results — the fault
// subsystem is invisible until a plan has events.
func TestEmptyFaultPlanBitIdentical(t *testing.T) {
	sys := StarNUMASystem()
	cfg := faultSim()
	want := resultJSON(t, sys, cfg, "BFS")
	cfg.Faults = &fault.Plan{Name: "empty"}
	got := resultJSON(t, sys, cfg, "BFS")
	if string(want) != string(got) {
		t.Fatalf("empty plan perturbed the result:\nnil:   %s\nempty: %s", want, got)
	}
}

// TestFaultPlanDeterministic pins bit-reproducibility under faults: the
// same plan + seed yields byte-identical Results across runs.
func TestFaultPlanDeterministic(t *testing.T) {
	sys := StarNUMASystem()
	cfg := faultSim()
	cfg.Faults = fault.FlapPlan()
	a := resultJSON(t, sys, cfg, "BFS")
	ResetWindowMemo() // simulate the windows again, not recall them
	b := resultJSON(t, sys, cfg, "BFS")
	if string(a) != string(b) {
		t.Fatalf("same plan+seed differs:\n%s\n%s", a, b)
	}
}

// TestFaultPlanPerturbsTiming checks a flap plan actually injects: the
// run completes, counts retries, and differs from the fault-free run.
func TestFaultPlanPerturbsTiming(t *testing.T) {
	sys := StarNUMASystem()
	cfg := faultSim()
	free := resultJSON(t, sys, cfg, "BFS")
	cfg.Faults = fault.FlapPlan()
	res, err := Run(sys, cfg, tinySpec(t, "BFS"))
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultFlapRetries == 0 {
		t.Error("flap plan recorded no retries")
	}
	b, _ := json.Marshal(res)
	if string(free) == string(b) {
		t.Error("flap plan did not perturb the result")
	}
}

// TestDeadPoolDrainsGracefully is the graceful-degradation pin: killing
// the whole MHD mid-run drains every pool-resident page back to the
// sockets, the run completes without panicking, and the final placement
// has nothing left in the pool.
func TestDeadPoolDrainsGracefully(t *testing.T) {
	sys := StarNUMASystem()
	cfg := faultSim()
	cfg.Faults = fault.DeadPoolPlan()
	res, err := Run(sys, cfg, tinySpec(t, "BFS"))
	if err != nil {
		t.Fatal(err)
	}
	if res.PoolPages != 0 {
		t.Errorf("%d pages still pool-resident after device death", res.PoolPages)
	}
	if res.MigrStats.PagesToPool == 0 {
		t.Error("pool never used before the kill (test needs an earlier kill phase?)")
	}
	if res.FaultDrainedPages == 0 {
		t.Error("no pages drained off the dead pool")
	}
	if res.IPC <= 0 {
		t.Errorf("degraded run produced IPC %v", res.IPC)
	}
}

// TestDeadChannelShrinksPool checks the partial-failure path: killing
// one of the two MHD channels halves the capacity budget, drains the
// overflow, and the run completes with the pool still in (reduced) use.
func TestDeadChannelShrinksPool(t *testing.T) {
	sys := StarNUMASystem()
	cfg := faultSim()
	cfg.Faults = fault.DeadChannelPlan(0)
	res, err := Run(sys, cfg, tinySpec(t, "BFS"))
	if err != nil {
		t.Fatal(err)
	}
	footprint := tinySpec(t, "BFS").FootprintPages
	halfCap := sys.Pool.DegradedCapacityPages(footprint,
		fault.PoolState{Down: []int{0}})
	if full := sys.Pool.CapacityPages(footprint); halfCap != full/2 {
		t.Errorf("degraded capacity %d is not half of %d", halfCap, full)
	}
	if res.PoolPages > halfCap {
		t.Errorf("%d pool pages exceed degraded capacity %d", res.PoolPages, halfCap)
	}
	if res.IPC <= 0 {
		t.Errorf("degraded run produced IPC %v", res.IPC)
	}
}

// TestNewPlanRejectsMissingPoolChannel pins where system and plan meet:
// a kill of a pool channel the pooled system does not have is an error
// naming the event and the channel count, not a silent fault-free run,
// while a pool-less system keeps ignoring pool events.
func TestNewPlanRejectsMissingPoolChannel(t *testing.T) {
	cfg := faultSim()
	cfg.Faults = fault.DeadChannelPlan(5)
	spec := tinySpec(t, "BFS")
	_, err := Run(StarNUMASystem(), cfg, spec)
	if err == nil {
		t.Fatal("kill of pool:ch5 on a 2-channel pool was accepted")
	}
	for _, want := range []string{"event 0", `"pool:ch5"`, "2 channels"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
	wide := StarNUMASystem()
	wide.Pool.Channels = 6
	if err := wide.CheckFaults(cfg.Faults); err != nil {
		t.Errorf("6-channel pool rejected a kill of ch5: %v", err)
	}
	if _, err := Run(BaselineSystem(), cfg, spec); err != nil {
		t.Errorf("pool-less system must ignore pool events: %v", err)
	}
}
