package sim

import (
	"math/rand"
	"testing"
)

// refHeap is the reference binary min-heap the wheel replaced; the
// differential tests below pin the wheel's pop sequence to it under the
// (at, seq) total order.
type refHeap []scheduled

func (h refHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *refHeap) push(it scheduled) {
	*h = append(*h, it)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *refHeap) pop() scheduled {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	*h = q
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		min := l
		if r := l + 1; r < n && q.less(r, l) {
			min = r
		}
		if !q.less(min, i) {
			break
		}
		q[i], q[min] = q[min], q[i]
		i = min
	}
	return top
}

// TestEventQueueDifferential drives the bucketed wheel and the
// reference heap with identical mixed push/pop traffic across many
// seeds and checks the pop sequences agree exactly — including
// same-timestamp ties, where seq must break the tie FIFO. Timestamps
// mix dense (in-wheel) and sparse (far-heap) horizons, and pushes are
// interleaved with pops at a monotonically advancing clock, mimicking
// how the engine uses the queue. One queue serves every seed: each seed
// after the first starts with a reset of a queue whose slab, free list
// and far heap are still populated, as the engine reuses its queue
// across windows.
func TestEventQueueDifferential(t *testing.T) {
	var wheel eventQueue
	for seed := int64(0); seed < 20; seed++ {
		wheel.reset()
		rng := rand.New(rand.NewSource(seed))
		var ref refHeap
		var seq uint64
		now := Time(0)
		// tieAt is a timestamp first pushed just beyond the horizon, so
		// its ties straddle the far heap and the wheel as the clock
		// approaches it.
		tieAt := Time(-1)
		push := func(at Time) {
			seq++
			it := scheduled{at: at, seq: seq}
			wheel.push(it)
			ref.push(it)
		}
		popBoth := func() {
			w := wheel.pop()
			r := ref.pop()
			if w.at != r.at || w.seq != r.seq {
				t.Fatalf("seed %d: wheel popped (at=%d seq=%d), heap popped (at=%d seq=%d)",
					seed, w.at, w.seq, r.at, r.seq)
			}
			if w.at < now {
				t.Fatalf("seed %d: time went backwards: %d < %d", seed, w.at, now)
			}
			now = w.at
		}
		for step := 0; step < 5000; step++ {
			switch {
			case len(ref) == 0 || rng.Intn(3) != 0:
				var at Time
				switch rng.Intn(10) {
				case 0: // far beyond the wheel horizon
					at = now + wheelSpan + Time(rng.Int63n(int64(wheelSpan)*100))
				case 1: // ties: reuse the current time exactly
					at = now
				case 2: // ties straddling the far/wheel boundary
					if tieAt < now {
						tieAt = now + wheelSpan + Time(rng.Int63n(4<<bucketShift))
					}
					at = tieAt
				default: // dense in-horizon delta
					at = now + Time(rng.Int63n(int64(wheelSpan)-1))
				}
				push(at)
			default:
				popBoth()
			}
		}
		// Odd seeds leave half their events queued for the next reset.
		for keep := len(ref) / 2 * int(seed&1); len(ref) > keep; {
			popBoth()
		}
		if wheel.size != len(ref) {
			t.Fatalf("seed %d: wheel holds %d events, reference %d", seed, wheel.size, len(ref))
		}
	}
}

// TestEventQueueFIFOTiesAcrossBuckets pins the tie-break when many
// events share one timestamp (they land in one bucket and must pop in
// seq order), and when ties straddle the wheel/far boundary.
func TestEventQueueFIFOTiesAcrossBuckets(t *testing.T) {
	var q eventQueue
	at := wheelSpan + 5 // beyond the initial horizon: all go to the far heap
	for i := 1; i <= 100; i++ {
		q.push(scheduled{at: at, seq: uint64(i)})
	}
	for i := 1; i <= 100; i++ {
		it := q.pop()
		if it.seq != uint64(i) {
			t.Fatalf("tie-break violated: popped seq %d, want %d", it.seq, i)
		}
	}
}

// TestEventQueueResetReusesCapacity checks reset drops queued events
// and rewinds the wheel so a reused queue behaves like a fresh one: each
// round resets a queue whose slab, free list and far heap are populated,
// then pops same-timestamp ties that straddle the far-heap/wheel
// boundary in seq order, all without growing the slab.
func TestEventQueueResetReusesCapacity(t *testing.T) {
	var q eventQueue
	slabCap := 0
	for round := 0; round < 3; round++ {
		for i := 0; i < 500; i++ {
			q.push(scheduled{at: Time(i * 3), seq: uint64(i + 1)})
		}
		for i := 0; i < 200; i++ {
			q.pop() // populates the free list
		}
		q.push(scheduled{at: 2 * wheelSpan, seq: 501}) // far heap
		if round == 0 {
			slabCap = cap(q.nodes)
		}
		q.reset()
		if q.size != 0 || q.inWheel != 0 || q.free != 0 || len(q.nodes) != 0 || len(q.far) != 0 {
			t.Fatalf("round %d: reset left size=%d inWheel=%d free=%d nodes=%d far=%d",
				round, q.size, q.inWheel, q.free, len(q.nodes), len(q.far))
		}
		// The wheel must accept t=0 events again after reset.
		tie := wheelSpan + 5 // beyond the rewound horizon
		q.push(scheduled{at: 0, seq: 1})
		q.push(scheduled{at: 7, seq: 2})
		q.push(scheduled{at: tie, seq: 3}) // far heap
		q.push(scheduled{at: tie, seq: 4}) // far heap
		q.push(scheduled{at: 300, seq: 5}) // next bucket: advances base
		for _, want := range []Time{0, 7, 300} {
			if it := q.pop(); it.at != want {
				t.Fatalf("round %d: popped at=%d after reset, want %d", round, it.at, want)
			}
		}
		// tie is now inside the horizon: these go straight to the wheel
		// while seqs 3 and 4 still wait in the far heap.
		q.push(scheduled{at: tie, seq: 6})
		q.push(scheduled{at: tie, seq: 7})
		for _, want := range []uint64{3, 4, 6, 7} {
			if it := q.pop(); it.at != tie || it.seq != want {
				t.Fatalf("round %d: popped (at=%d seq=%d), want (at=%d seq=%d)", round, it.at, it.seq, tie, want)
			}
		}
		if q.size != 0 {
			t.Fatalf("round %d: %d events left", round, q.size)
		}
		if cap(q.nodes) != slabCap {
			t.Fatalf("round %d: slab capacity %d, want %d retained", round, cap(q.nodes), slabCap)
		}
	}
}

// TestEngineResetBehavesLikeFresh runs the same schedule on a reused
// and a fresh engine and requires identical firing order and clocks.
func TestEngineResetBehavesLikeFresh(t *testing.T) {
	run := func(e *Engine) []Time {
		var fired []Time
		e.At(30, func(now Time) { fired = append(fired, now) })
		e.At(10, func(now Time) {
			fired = append(fired, now)
			e.After(5, func(now Time) { fired = append(fired, now) })
		})
		e.Run()
		return fired
	}
	reused := NewEngine()
	run(reused)
	// Leave junk queued, then reset.
	reused.At(99, func(Time) { t.Fatal("dropped event fired") })
	reused.Reset()
	if reused.Now() != 0 || reused.Pending() != 0 || reused.Fired() != 0 {
		t.Fatalf("reset engine not fresh: now=%v pending=%d fired=%d",
			reused.Now(), reused.Pending(), reused.Fired())
	}
	got := run(reused)
	want := run(NewEngine())
	if len(got) != len(want) {
		t.Fatalf("reused fired %v, fresh fired %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("reused fired %v, fresh fired %v", got, want)
		}
	}
}

// BenchmarkEventQueuePushPop measures the steady-state cost of the
// dense-timestamp path: push an in-horizon event, pop the minimum. The
// AllocsPerRun pin holds the hot path alloc-free once the node slab
// has grown to the live event count. Its 1024 events within 2000ps
// pack ~128 per bucket, far denser than step C; see
// BenchmarkEventQueueStepCShape for that shape.
func BenchmarkEventQueuePushPop(b *testing.B) {
	var q eventQueue
	now := Time(0)
	rng := rand.New(rand.NewSource(1))
	var seq uint64
	// Establish steady-state occupancy and slab size.
	for i := 0; i < 1024; i++ {
		seq++
		q.push(scheduled{at: now + Time(rng.Int63n(2000)), seq: seq})
	}
	if avg := testing.AllocsPerRun(10000, func() {
		it := q.pop()
		now = it.at
		seq++
		q.push(scheduled{at: now + Time(rng.Int63n(2000)), seq: seq})
	}); avg != 0 {
		b.Fatalf("steady-state push/pop allocates %v per op, want 0", avg)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := q.pop()
		now = it.at
		seq++
		q.push(scheduled{at: now + Time(rng.Int63n(2000)), seq: seq})
	}
}

// BenchmarkEventQueueFarHorizon measures the overflow path: every event
// lands beyond the wheel horizon and migrates through the far heap.
// Also pinned alloc-free at steady state.
func BenchmarkEventQueueFarHorizon(b *testing.B) {
	var q eventQueue
	now := Time(0)
	rng := rand.New(rand.NewSource(2))
	var seq uint64
	for i := 0; i < 256; i++ {
		seq++
		q.push(scheduled{at: now + wheelSpan + Time(rng.Int63n(int64(wheelSpan))), seq: seq})
	}
	if avg := testing.AllocsPerRun(10000, func() {
		it := q.pop()
		now = it.at
		seq++
		q.push(scheduled{at: now + wheelSpan + Time(rng.Int63n(int64(wheelSpan))), seq: seq})
	}); avg != 0 {
		b.Fatalf("steady-state far push/pop allocates %v per op, want 0", avg)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := q.pop()
		now = it.at
		seq++
		q.push(scheduled{at: now + wheelSpan + Time(rng.Int63n(int64(wheelSpan))), seq: seq})
	}
}

// BenchmarkEventQueueStepCShape measures push/pop at the shape a step-C
// window gives the queue: about 512 pending events, each scheduled
// 0–160ns ahead of the clock (a link hop or DRAM access), so buckets
// hold one or two events, plus a 0.2% tail beyond the wheel's horizon.
// Pinned alloc-free at steady state like the benchmarks above.
func BenchmarkEventQueueStepCShape(b *testing.B) {
	var q eventQueue
	now := Time(0)
	rng := rand.New(rand.NewSource(3))
	var seq uint64
	push := func() {
		lead := Time(rng.Int63n(int64(160 * Nanosecond)))
		if rng.Intn(500) == 0 {
			lead += wheelSpan
		}
		seq++
		q.push(scheduled{at: now + lead, seq: seq})
	}
	step := func() {
		now = q.pop().at
		push()
	}
	for i := 0; i < 512; i++ {
		push()
	}
	if avg := testing.AllocsPerRun(10000, step); avg != 0 {
		b.Fatalf("steady-state step-C push/pop allocates %v per op, want 0", avg)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}
