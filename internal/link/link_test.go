package link

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"starnuma/internal/evtrace"
	"starnuma/internal/fault"
	"starnuma/internal/sim"
)

func TestUnloadedSend(t *testing.T) {
	// 1 GB/s = 1 byte/ns, so 64 bytes serialize in 64ns; +25ns latency.
	l := New("upi", 1, 25*sim.Nanosecond)
	done, q := l.Send(0, 64)
	if q != 0 {
		t.Fatalf("queuing = %v on idle link", q)
	}
	if done != 89*sim.Nanosecond {
		t.Fatalf("done = %v, want 89ns", done)
	}
}

func TestInfiniteBandwidth(t *testing.T) {
	l := New("inf", 0, 10*sim.Nanosecond)
	for i := 0; i < 100; i++ {
		done, q := l.Send(0, 1<<20)
		if q != 0 || done != 10*sim.Nanosecond {
			t.Fatalf("infinite-bw link queued: done=%v q=%v", done, q)
		}
	}
}

func TestQueuingDelay(t *testing.T) {
	l := New("upi", 1, 0) // 64B takes 64ns on the wire
	done1, q1 := l.Send(0, 64)
	if q1 != 0 || done1 != 64*sim.Nanosecond {
		t.Fatalf("first: done=%v q=%v", done1, q1)
	}
	// Second message arrives while the first still transmits.
	done2, q2 := l.Send(10*sim.Nanosecond, 64)
	if q2 != 54*sim.Nanosecond {
		t.Fatalf("second queuing = %v, want 54ns", q2)
	}
	if done2 != 128*sim.Nanosecond {
		t.Fatalf("second done = %v, want 128ns", done2)
	}
	// Third message arrives after the wire is free again: no queuing.
	done3, q3 := l.Send(200*sim.Nanosecond, 64)
	if q3 != 0 || done3 != 264*sim.Nanosecond {
		t.Fatalf("third: done=%v q=%v", done3, q3)
	}
}

func TestStatsAndUtilization(t *testing.T) {
	l := New("n", 2, 5*sim.Nanosecond) // 2 GB/s: 64B = 32ns
	l.Send(0, 64)
	l.Send(0, 64)
	s := l.Stats()
	if s.Messages != 2 || s.Bytes != 128 {
		t.Fatalf("stats = %+v", s)
	}
	if s.BusyTime != 64*sim.Nanosecond {
		t.Fatalf("busy = %v", s.BusyTime)
	}
	if s.QueuedTime != 32*sim.Nanosecond {
		t.Fatalf("queued = %v", s.QueuedTime)
	}
	if u := l.Utilization(128 * sim.Nanosecond); u != 0.5 {
		t.Fatalf("utilization = %v", u)
	}
	if u := l.Utilization(0); u != 0 {
		t.Fatalf("utilization(0) = %v", u)
	}
	l.Reset()
	if s := l.Stats(); s.Messages != 0 || s.BusyTime != 0 {
		t.Fatalf("after reset: %+v", s)
	}
}

func TestNegativeSizePanics(t *testing.T) {
	l := New("n", 1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l.Send(0, -1)
}

func TestNegativeLatencyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New("n", 1, -1)
}

// Property: deliveries are FIFO and the wire never transmits two messages
// at once — total busy time equals the sum of serialization times, and
// each message's delivery is at least arrival + its own serialization +
// latency.
func TestLinkConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := New("p", 3, 7*sim.Nanosecond)
		now := sim.Time(0)
		var lastDone sim.Time
		for i := 0; i < 100; i++ {
			now += sim.Time(rng.Int63n(30 * int64(sim.Nanosecond)))
			bytes := 8 + rng.Intn(120)
			done, q := l.Send(now, bytes)
			if q < 0 || done < now+7*sim.Nanosecond {
				return false
			}
			if done < lastDone { // FIFO: deliveries in order
				return false
			}
			lastDone = done
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: at saturation, throughput approaches the configured
// bandwidth: N back-to-back messages of size S finish no earlier than
// N*S/BW.
func TestLinkThroughputBound(t *testing.T) {
	l := New("sat", 3, 0) // 3 GB/s
	const n, size = 1000, 72
	var done sim.Time
	for i := 0; i < n; i++ {
		done, _ = l.Send(0, size)
	}
	// 3 GB/s = 3 bytes/ns -> 72000 bytes need >= 24000ns.
	min := sim.Time(n * size / 3 * int64(sim.Nanosecond))
	if done < min {
		t.Fatalf("finished in %v, faster than line rate %v", done, min)
	}
	if done > min+min/100 {
		t.Fatalf("finished in %v, want within 1%% of %v", done, min)
	}
}

func BenchmarkLinkSend(b *testing.B) {
	l := New("b", 3, 25*sim.Nanosecond)
	for i := 0; i < b.N; i++ {
		l.Send(sim.Time(i)*sim.Nanosecond, 72)
	}
}

// Queueing-theory validation: for Poisson arrivals and deterministic
// service (M/D/1), mean waiting time is ρ·S / (2(1-ρ)). The link model
// must reproduce this within sampling error — it is the foundation the
// "Contention Delay" AMAT component rests on.
func TestMD1QueueingDelay(t *testing.T) {
	const (
		serviceNS = 24.0 // 72B at 3 GB/s
		rho       = 0.6
	)
	l := New("md1", 3, 0)
	rng := rand.New(rand.NewSource(7))
	meanInterarrival := serviceNS / rho

	var now float64
	var totalQueue sim.Time
	const n = 200000
	for i := 0; i < n; i++ {
		now += rng.ExpFloat64() * meanInterarrival
		_, q := l.Send(sim.FromNanos(now), 72)
		totalQueue += q
	}
	measured := totalQueue.Nanos() / n
	expected := rho * serviceNS / (2 * (1 - rho)) // 18ns at ρ=0.6
	if measured < expected*0.9 || measured > expected*1.1 {
		t.Fatalf("M/D/1 wait = %.2fns, theory %.2fns", measured, expected)
	}
}

// At high utilisation the same law must hold (queuing grows nonlinearly).
func TestMD1HighUtilisation(t *testing.T) {
	const (
		serviceNS = 24.0
		rho       = 0.9
	)
	l := New("md1hi", 3, 0)
	rng := rand.New(rand.NewSource(11))
	var now float64
	var totalQueue sim.Time
	const n = 400000
	for i := 0; i < n; i++ {
		now += rng.ExpFloat64() * serviceNS / rho
		_, q := l.Send(sim.FromNanos(now), 72)
		totalQueue += q
	}
	measured := totalQueue.Nanos() / n
	expected := rho * serviceNS / (2 * (1 - rho)) // 108ns at ρ=0.9
	if measured < expected*0.8 || measured > expected*1.2 {
		t.Fatalf("M/D/1 wait at ρ=0.9 = %.2fns, theory %.2fns", measured, expected)
	}
}

func TestSendBatchMatchesSequentialSends(t *testing.T) {
	for _, tc := range []struct {
		name  string
		warm  bool // pre-load the wire so the batch queues
		bytes int
		count int
	}{
		{"cold", false, 64, 64},
		{"queued", true, 64, 64},
		{"single", false, 4096, 1},
		{"zero-bytes", false, 0, 16},
	} {
		seq := New("seq", 6, 50*sim.Nanosecond)
		bat := New("bat", 6, 50*sim.Nanosecond)
		now := sim.Time(1000)
		if tc.warm {
			seq.Send(0, 100000)
			bat.Send(0, 100000)
		}
		var want []sim.Time
		for i := 0; i < tc.count; i++ {
			d, _ := seq.Send(now, tc.bytes)
			want = append(want, d)
		}
		first, step, ok := bat.SendBatch(now, tc.bytes, tc.count)
		if !ok {
			t.Fatalf("%s: SendBatch refused without an injector", tc.name)
		}
		for i, w := range want {
			if got := first + sim.Time(i)*step; got != w {
				t.Fatalf("%s: message %d delivered at %v, sequential %v", tc.name, i, got, w)
			}
		}
		ss, bs := seq.Stats(), bat.Stats()
		ss.Name, bs.Name = "", ""
		if ss != bs {
			t.Fatalf("%s: batch stats %+v, sequential %+v", tc.name, bs, ss)
		}
	}
}

func TestSendBatchRefusesFaultedLink(t *testing.T) {
	l := New("faulted", 6, sim.Nanosecond)
	l.SetFault(&fault.Injector{})
	if _, _, ok := l.SendBatch(0, 64, 4); ok {
		t.Fatal("SendBatch accepted a link with a fault injector")
	}
	if l.Stats().Messages != 0 {
		t.Fatal("refused batch still charged the link")
	}
}

func TestResetRestartsTraceSampling(t *testing.T) {
	// A link recycled between timing windows must trace the same sampled
	// fault-adjusted sends as a fresh one: Reset rewinds the sampling
	// counter along with the wire state.
	sched := fault.NewSchedule(fault.FlapPlan())
	l := New("cxl:s0->pool", 6, 50*sim.Nanosecond)
	round := func() []evtrace.Event {
		buf := evtrace.NewBuffer()
		l.SetFault(sched.Link("cxl", "s0", "pool", 1))
		l.SetTrace(buf, "fault/"+l.Name())
		for i := 0; i < 1000; i++ {
			l.Send(sim.Time(i)*10*sim.Nanosecond, 64)
		}
		l.Reset()
		return buf.Events
	}
	first := round()
	if len(first) < 2 {
		t.Fatalf("flap plan traced %d sends, want several", len(first))
	}
	if second := round(); !reflect.DeepEqual(first, second) {
		t.Fatalf("replay after Reset traced %d spans, first run %d (or different sends)",
			len(second), len(first))
	}
}
