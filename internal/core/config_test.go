package core

import (
	"encoding/json"
	"reflect"
	"testing"

	"starnuma/internal/migrate"
	"starnuma/internal/sim"
	"starnuma/internal/topology"
)

// The system constructors encode Table II; these tests pin the paper's
// scaled parameters so accidental edits surface immediately.
func TestBaselineSystemMatchesTable2(t *testing.T) {
	s := BaselineSystem()
	if s.UPIBandwidth != 3 || s.NUMABandwidth != 3 {
		t.Errorf("link bandwidth %v/%v, want 3/3 GB/s (Table II)", s.UPIBandwidth, s.NUMABandwidth)
	}
	if s.SocketMem.Channels != 1 {
		t.Errorf("socket channels = %d, want 1 (Table II)", s.SocketMem.Channels)
	}
	if s.CoresPerSocket != 4 {
		t.Errorf("cores/socket = %d, want 4 (Table II)", s.CoresPerSocket)
	}
	if s.ClockGHz != 2.4 {
		t.Errorf("clock = %v, want 2.4 GHz (Table I)", s.ClockGHz)
	}
	if s.LLCBytes != 8<<20 {
		t.Errorf("LLC = %d, want 8 MB (2MB/core x 4)", s.LLCBytes)
	}
	if s.Topology.HasPool {
		t.Error("baseline must not have a pool")
	}
}

func TestStarNUMASystemMatchesTable2(t *testing.T) {
	s := StarNUMASystem()
	if !s.Topology.HasPool {
		t.Fatal("no pool")
	}
	if s.Pool.LinkBW != 6 {
		t.Errorf("CXL bandwidth = %v, want 6 GB/s (Table II)", s.Pool.LinkBW)
	}
	if s.Pool.Channels != 2 {
		t.Errorf("pool channels = %d, want 2 (Table II)", s.Pool.Channels)
	}
	if s.Pool.CapacityFraction != 0.20 {
		t.Errorf("pool capacity = %v, want 20%% (§IV-D)", s.Pool.CapacityFraction)
	}
}

func TestCyclePS(t *testing.T) {
	s := BaselineSystem()
	got := s.CyclePS()
	if got < 416.6 || got > 416.7 {
		t.Fatalf("cycle = %vps, want ~416.67ps at 2.4GHz", got)
	}
}

func TestDefaultSimMethodology(t *testing.T) {
	c := DefaultSim()
	// 10% timing window, warm-up inside it (§IV-A3).
	if c.TimedInstr*10 != c.PhaseInstr {
		t.Errorf("timed window %d is not 10%% of phase %d", c.TimedInstr, c.PhaseInstr)
	}
	if c.WarmupInstr >= c.TimedInstr {
		t.Error("warmup not inside window")
	}
	if c.Phases < 5 || c.Phases > 10 {
		t.Errorf("phases = %d, paper uses 5-10 checkpoints", c.Phases)
	}
	if c.MigrationCostCycles != 3000 {
		t.Errorf("migration cost = %d cycles, want 3000 (§IV-C)", c.MigrationCostCycles)
	}
}

func TestUnassignedSentinel(t *testing.T) {
	if Unassigned >= 0 {
		t.Fatal("Unassigned must be negative (outside node range)")
	}
	if topology.NodeID(0) == Unassigned {
		t.Fatal("socket 0 equals Unassigned")
	}
}

func TestGapTimeMonotone(t *testing.T) {
	cyclePS := BaselineSystem().CyclePS()
	prev := sim.Time(0)
	for gap := uint32(1); gap < 1000; gap *= 3 {
		got := gapTime(gap, 2.0, cyclePS)
		if got <= prev {
			t.Fatalf("gapTime not increasing at gap %d", gap)
		}
		prev = got
	}
}

// TestPolicySpecJSONRoundTrip: a SimConfig's policy is content-hashed
// into the result-cache key and decoded from cached entries, so every
// spec must survive decode(encode(p)) == p — including an empty but
// non-nil params map, which an omitempty tag would turn into nil.
func TestPolicySpecJSONRoundTrip(t *testing.T) {
	for _, p := range []PolicySpec{
		{},
		PolicyOracle,
		{Name: "baseline-perfect", Params: migrate.Params{"migration_limit": 0, "gain": 2.5}},
		{Name: "starnuma", Params: migrate.Params{}},
	} {
		b, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		var got PolicySpec
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		if !reflect.DeepEqual(got, p) {
			t.Errorf("round trip of %s: got %#v, want %#v", b, got, p)
		}
	}
}
