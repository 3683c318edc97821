package memdev

import (
	"testing"
	"testing/quick"

	"starnuma/internal/fault"

	"starnuma/internal/sim"
)

func TestUnloadedLocalAccessIs80ns(t *testing.T) {
	c := NewController("s0", DefaultSocketConfig())
	if got := c.UnloadedLatency(); got != 80*sim.Nanosecond {
		t.Fatalf("unloaded = %v, want 80ns (paper §II-A)", got)
	}
	done, q := c.Access(0, 0x1000, 64)
	if q != 0 {
		t.Fatalf("queuing on idle controller = %v", q)
	}
	// 30ns on-chip + 64B/38.4GBps serialization (1.67ns) + 50ns DRAM.
	want := 30*sim.Nanosecond + sim.FromNanos(64.0/38.4) + 50*sim.Nanosecond
	if done != want {
		t.Fatalf("done = %v, want %v", done, want)
	}
}

func TestChannelInterleaving(t *testing.T) {
	c := NewController("pool", DefaultPoolConfig())
	// Blocks 0 and 1 must land on different channels.
	c.Access(0, 0, 64)
	c.Access(0, 64, 64)
	st := c.Stats()
	if len(st) != 2 {
		t.Fatalf("channels = %d", len(st))
	}
	if st[0].Messages != 1 || st[1].Messages != 1 {
		t.Fatalf("interleaving failed: %d/%d", st[0].Messages, st[1].Messages)
	}
}

func TestChannelQueuing(t *testing.T) {
	c := NewController("s0", DefaultSocketConfig())
	c.Access(0, 0, 64)
	_, q := c.Access(0, 4096, 64) // same single channel, same arrival
	if q <= 0 {
		t.Fatalf("second access saw no queuing: %v", q)
	}
}

func TestReset(t *testing.T) {
	c := NewController("s0", DefaultSocketConfig())
	c.Access(0, 0, 64)
	c.Reset()
	for _, s := range c.Stats() {
		if s.Messages != 0 {
			t.Fatalf("reset left stats %+v", s)
		}
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	for _, cfg := range []Config{
		{Channels: 0, ChannelBW: 1},
		{Channels: 1, OnChip: -1},
		{Channels: 1, DRAMLatency: -1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v did not panic", cfg)
				}
			}()
			NewController("bad", cfg)
		}()
	}
}

// Property: accesses never complete before on-chip + DRAM latency, and
// channel selection is always in range.
func TestAccessLowerBoundProperty(t *testing.T) {
	c := NewController("p", DefaultPoolConfig())
	min := c.UnloadedLatency()
	f := func(addr uint64, gap uint16) bool {
		now := sim.Time(gap) * sim.Nanosecond
		done, q := c.Access(now, addr, 64)
		return done >= now+min && q >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkControllerAccess(b *testing.B) {
	c := NewController("b", DefaultSocketConfig())
	for i := 0; i < b.N; i++ {
		c.Access(sim.Time(i)*sim.Nanosecond, uint64(i)<<6, 64)
	}
}

func TestApplyFaultRemapsDeadChannel(t *testing.T) {
	c := NewController("pool", DefaultPoolConfig()) // 2 channels
	c.ApplyFault(fault.PoolState{Down: []int{0}})
	// Blocks that interleave across both channels now all land on the
	// survivor — the dead channel sees no traffic.
	c.Access(0, 0, 64)
	c.Access(0, 64, 64)
	st := c.Stats()
	if st[0].Messages != 0 || st[1].Messages != 2 {
		t.Fatalf("traffic after ch0 death: %d/%d, want 0/2", st[0].Messages, st[1].Messages)
	}
}

func TestApplyFaultHealthyIsNoOp(t *testing.T) {
	c := NewController("pool", DefaultPoolConfig())
	c.ApplyFault(fault.PoolState{})
	c.Access(0, 0, 64)
	c.Access(0, 64, 64)
	st := c.Stats()
	if st[0].Messages != 1 || st[1].Messages != 1 {
		t.Fatalf("healthy fault state changed interleaving: %d/%d", st[0].Messages, st[1].Messages)
	}
}

func TestApplyFaultDeadDeviceKeepsEmergencyChannel(t *testing.T) {
	c := NewController("pool", DefaultPoolConfig())
	c.ApplyFault(fault.PoolState{Dead: true})
	// A dead device must still answer (the drain traffic has to go
	// somewhere) — everything funnels through channel 0.
	done, _ := c.Access(0, 128, 64)
	if done <= 0 {
		t.Fatalf("dead device refused access: %v", done)
	}
	st := c.Stats()
	if st[0].Messages != 1 || st[1].Messages != 0 {
		t.Fatalf("dead-device traffic %d/%d, want all on emergency ch0", st[0].Messages, st[1].Messages)
	}
}
