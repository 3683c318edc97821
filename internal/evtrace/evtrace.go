// Package evtrace is the simulator's deterministic event-trace
// recorder: a timeline companion to internal/metrics' aggregate
// counters. Model code records spans and instants into a Buffer in
// simulated time; the exp/cmd layer assembles buffers into a Trace and
// encodes it as Chrome trace_event JSON that Perfetto and
// chrome://tracing load directly.
//
// The package obeys the simulation determinism contract (DESIGN.md §3,
// starnumavet's SimPackages): it never reads wall clocks, buffers
// preserve recording order, pid/tid assignment sorts lane names, and
// the JSON codec is canonical, so two identical runs emit
// byte-identical traces. Recording is off by default and nil-safe —
// every method of a nil *Buffer is an allocation-free no-op — which
// lets model code instrument unconditionally and pay nothing when
// tracing is disabled (pinned by TestDisabledHotPathAllocatesNothing).
//
// The package is named evtrace because internal/trace is the workload
// trace-replay package; the two are unrelated.
package evtrace

import "starnuma/internal/sim"

// Chrome trace_event phase types emitted by this package. Decode
// accepts any phase string; Validate restricts to these.
const (
	// PhSpan is a complete event ("X"): a named interval with a duration.
	PhSpan = "X"
	// PhInstant is an instant event ("i"): a point in time.
	PhInstant = "i"
	// PhMeta is a metadata event ("M"): process/thread naming.
	PhMeta = "M"
)

// Arg is one key/value annotation on an event. Values are strings so
// the codec round-trips exactly; numeric annotations format their
// value at record time.
type Arg struct {
	Key, Val string
}

// Event is one recorded event before pid/tid assignment. Lane routes
// the event onto the timeline as "process" or "process/thread"
// (everything after the first slash is the thread); the Builder maps
// lane names to trace pids/tids.
type Event struct {
	Name string
	Cat  string
	Ph   string
	Lane string
	Ts   sim.Time
	Dur  sim.Time
	Args []Arg
}

// Buffer accumulates events during one simulation scope (one timing
// window, or step B's trace pass). It is not safe for concurrent use;
// concurrency is obtained like internal/metrics — each window records
// into its own buffer and the results merge in checkpoint order.
//
// A nil *Buffer is the disabled recorder: every method is a no-op that
// performs no allocation, so call sites need no guard (hot paths still
// guard to skip argument formatting).
type Buffer struct {
	// Events is the recorded sequence, in recording order. Exported so
	// the assembly layer (core.Plan, exp) can shift and merge buffers.
	Events []Event
}

// NewBuffer returns an empty, enabled buffer.
func NewBuffer() *Buffer { return &Buffer{} }

// Enabled reports whether the buffer records anything.
func (b *Buffer) Enabled() bool { return b != nil }

// Len returns the number of recorded events (0 for a nil buffer).
func (b *Buffer) Len() int {
	if b == nil {
		return 0
	}
	return len(b.Events)
}

// Span records a complete event covering [ts, ts+dur).
func (b *Buffer) Span(cat, name, lane string, ts, dur sim.Time) {
	if b == nil {
		return
	}
	b.Events = append(b.Events, Event{Name: name, Cat: cat, Ph: PhSpan, Lane: lane, Ts: ts, Dur: dur})
}

// SpanArgs records a complete event with annotations. The variadic
// slice allocates, so hot paths guard with Enabled before formatting.
func (b *Buffer) SpanArgs(cat, name, lane string, ts, dur sim.Time, args ...Arg) {
	if b == nil {
		return
	}
	b.Events = append(b.Events, Event{Name: name, Cat: cat, Ph: PhSpan, Lane: lane, Ts: ts, Dur: dur, Args: args})
}

// Instant records a point event at ts.
func (b *Buffer) Instant(cat, name, lane string, ts sim.Time) {
	if b == nil {
		return
	}
	b.Events = append(b.Events, Event{Name: name, Cat: cat, Ph: PhInstant, Lane: lane, Ts: ts})
}

// InstantArgs records a point event with annotations.
func (b *Buffer) InstantArgs(cat, name, lane string, ts sim.Time, args ...Arg) {
	if b == nil {
		return
	}
	b.Events = append(b.Events, Event{Name: name, Cat: cat, Ph: PhInstant, Lane: lane, Ts: ts, Args: args})
}

// Shift adds delta to every event's timestamp — how core.Plan lays the
// step-C windows (each simulated from its own t=0) end to end on one
// continuous timeline.
func (b *Buffer) Shift(delta sim.Time) {
	if b == nil || delta == 0 {
		return
	}
	for i := range b.Events {
		b.Events[i].Ts += delta
	}
}

// Append moves o's events onto the end of b, preserving order. o may
// be nil; appending to a nil b drops the events (recording disabled).
func (b *Buffer) Append(o *Buffer) {
	if b == nil || o == nil {
		return
	}
	b.Events = append(b.Events, o.Events...)
}
