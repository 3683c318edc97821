package sim

import "math/bits"

// The event queue is a bucketed timing wheel with a far-future heap
// fallback — the classic calendar-queue design, specialised for the
// simulator's dense-timestamp common case. Most scheduled events land
// within a couple of microseconds of the clock (link hops, DRAM
// accesses, compute wakes), so O(log n) heap sifting per event is
// replaced by O(1) bucket links plus a bitmap scan per pop. Events
// beyond the wheel's horizon (sparse horizons: migration kick-offs,
// replica-write penalties) overflow into a min-heap and are drained
// into the wheel as the clock approaches them.
//
// Wheel events live in one node slab: each bucket is a list linked
// through it by int32 index, and popped nodes go on a LIFO free list,
// so a step-C window's few hundred live events stay in a few KB of
// recently touched nodes, not in arrays cold since the wheel's last lap.
//
// Determinism: pop returns the global minimum under the (at, seq) total
// order. seq is unique, so the pop sequence — and therefore every
// simulation result — is bit-identical to the binary-heap
// implementation this replaces, whatever order a bucket's list is in.
// The differential test in queue_test.go pins exactly that property.
const (
	// bucketShift sets the bucket width: 1<<8 ps = 256ps, around one
	// core cycle — fine enough that same-bucket scans (linear per pop)
	// stay at a handful of events even under heavy link contention.
	bucketShift = 8
	// bucketCount spans 8192 buckets ≈ 2.1µs of horizon, comfortably
	// past link/DRAM latencies (~80–600ns deltas).
	bucketCount = 8192
	bucketMask  = bucketCount - 1
	occWords    = bucketCount / 64
	wheelSpan   = Time(bucketCount << bucketShift)
)

// node is one slab slot: an event and the index of the next node in its
// bucket or the free list. Index 0 is the sentinel that ends each list.
type node struct {
	scheduled
	next int32
}

// eventQueue is the calendar queue: a ring of time buckets with an
// occupancy bitmap, plus the far-future overflow heap. The zero value
// is ready to use.
type eventQueue struct {
	size    int // total events queued (wheel + far)
	inWheel int

	heads   [bucketCount]int32 // slab index of each bucket's first node
	nodes   []node             // the slab; nodes[0] is the sentinel
	free    int32              // first node of the free list
	occ     [occWords]uint64
	base    Time // start time of the bucket at baseIdx
	baseIdx int

	far farHeap
}

//starnuma:hotpath called once per scheduled event
func (q *eventQueue) push(it scheduled) {
	q.size++
	// it.at >= engine.now >= q.base always holds: base only advances to
	// the bucket of an event that has been popped (now = its at), and
	// the engine rejects past scheduling.
	if d := it.at - q.base; d < wheelSpan {
		q.link((q.baseIdx+int(d>>bucketShift))&bucketMask, it)
		return
	}
	q.far.push(it)
}

// link files it at the front of bucket idx, in the most recently freed
// node or, when the free list is empty, a new node at the slab's end.
//
//starnuma:hotpath called once per wheel insertion
func (q *eventQueue) link(idx int, it scheduled) {
	n := q.free
	if n != 0 {
		q.free = q.nodes[n].next
	} else {
		n = int32(max(len(q.nodes), 1))
		//starnumavet:allow hotalloc amortized slab growth (the first also adds the sentinel); capacity is retained across the whole run
		q.nodes = append(q.nodes, make([]node, int(n)+1-len(q.nodes))...)
	}
	q.nodes[n] = node{scheduled: it, next: q.heads[idx]}
	q.heads[idx] = n
	q.occ[idx>>6] |= 1 << uint(idx&63)
	q.inWheel++
}

// settle prepares the queue for a minimum lookup: it relocates the
// wheel onto the far heap's top when the wheel is empty, drains
// far-future events that the horizon has reached, and advances
// base/baseIdx to the first occupied bucket. The queue must be
// non-empty. Settling mutates cursor state but removes nothing, so it
// is idempotent and shared by pop and peekAt.
//
//starnuma:hotpath called once per dispatched event
func (q *eventQueue) settle() int {
	if q.inWheel == 0 {
		// Jump the wheel to the earliest far event's bucket; the drain
		// below moves it (and any horizon-mates) in.
		q.base = q.far[0].at &^ (1<<bucketShift - 1)
	}
	for len(q.far) > 0 && q.far[0].at-q.base < wheelSpan {
		it := q.far.pop()
		q.link((q.baseIdx+int((it.at-q.base)>>bucketShift))&bucketMask, it)
	}
	idx := q.nextOccupied()
	if steps := (idx - q.baseIdx) & bucketMask; steps != 0 {
		q.base += Time(steps << bucketShift)
		q.baseIdx = idx
	}
	return idx
}

// nextOccupied scans the occupancy bitmap cyclically from baseIdx for
// the first non-empty bucket. At least one bucket must be occupied.
//
//starnuma:hotpath bitmap scan per dispatched event
func (q *eventQueue) nextOccupied() int {
	w := q.baseIdx >> 6
	word := q.occ[w] &^ (1<<uint(q.baseIdx&63) - 1) // mask bits below baseIdx
	for i := 0; i <= occWords; i++ {
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
		w = (w + 1) & (occWords - 1)
		word = q.occ[w]
	}
	panic("sim: nextOccupied on empty wheel")
}

// pop removes and returns the event that is minimal under (at, seq).
// The queue must be non-empty.
//
//starnuma:hotpath called once per dispatched event
func (q *eventQueue) pop() scheduled {
	idx := q.settle()
	nodes := q.nodes
	// bestLink is the link (bucket head or next field) to the best node.
	bestLink := &q.heads[idx]
	for l := &nodes[*bestLink].next; *l != 0; l = &nodes[*l].next {
		if c, b := &nodes[*l], &nodes[*bestLink]; c.at < b.at || (c.at == b.at && c.seq < b.seq) {
			bestLink = l
		}
	}
	best := *bestLink
	b := &nodes[best]
	it := b.scheduled
	*bestLink = b.next
	if q.heads[idx] == 0 {
		q.occ[idx>>6] &^= 1 << uint(idx&63)
	}
	*b = node{next: q.free} // drops the closure so finished events can be collected
	q.free = best
	q.inWheel--
	q.size--
	return it
}

// peekAt returns the timestamp of the minimal event without removing
// it. The queue must be non-empty.
func (q *eventQueue) peekAt() Time {
	idx := q.settle()
	n := q.heads[idx]
	at := q.nodes[n].at
	for n = q.nodes[n].next; n != 0; n = q.nodes[n].next {
		at = min(at, q.nodes[n].at)
	}
	return at
}

// reset empties the queue (dropping any still-scheduled events and
// their closure references) and rewinds the wheel to time zero, keeping
// the slab's and far heap's capacity for reuse.
//
//starnuma:coldpath once per window on engine reuse
func (q *eventQueue) reset() {
	clear(q.nodes)
	clear(q.far)
	*q = eventQueue{nodes: q.nodes[:0], far: q.far[:0]}
}

// farHeap is a binary min-heap of scheduled events ordered by
// (at, seq), holding events beyond the wheel's horizon. It is
// hand-rolled rather than built on container/heap: heap.Push/Pop
// traffic in interface{} and would box one scheduled struct per event.
type farHeap []scheduled

func (h farHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

//starnuma:hotpath once per beyond-horizon event
func (h *farHeap) push(it scheduled) {
	//starnumavet:allow hotalloc amortized heap growth; capacity is retained across the whole run
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

//starnuma:hotpath once per beyond-horizon event
func (h *farHeap) pop() scheduled {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = scheduled{}
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
