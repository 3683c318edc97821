// Package metrics is the simulator's instrumentation substrate: a
// typed registry of counters, histograms and sim-time-bucketed
// time series, keyed by hierarchical slash-separated names such as
// "link/upi/s0-s1/tx_bytes".
//
// The registry obeys the same determinism contract as the rest of the
// simulation stack (DESIGN.md §3): it never reads wall clocks, every
// export iterates sorted keys, and its JSON codec produces byte-stable
// encodings, so two identical runs dump byte-identical metrics.
// Collection is off by default and nil-safe throughout — every method
// of a nil *Registry is a no-op — which lets model code instrument
// unconditionally and pay (almost) nothing when disabled.
package metrics

import (
	"math/bits"
)

// Registry accumulates metrics during one simulation scope (one timing
// window or one step-B trace pass). It is not safe for concurrent use;
// concurrency is obtained by giving each window its own registry and
// merging the resulting Snapshots in checkpoint order.
type Registry struct {
	counters map[string]uint64
	hists    map[string]*histogram
	series   map[string][]Point
}

// New returns an empty, enabled registry.
func New() *Registry { return &Registry{} }

// Enabled reports whether the registry records anything. A nil registry
// is the disabled (no-op) instrument.
func (r *Registry) Enabled() bool { return r != nil }

// Add increments the named counter by delta.
//
//starnuma:hotpath counters are bumped from per-event handlers
func (r *Registry) Add(name string, delta uint64) {
	if r == nil {
		return
	}
	if r.counters == nil {
		r.counters = make(map[string]uint64)
	}
	r.counters[name] += delta
}

// Observe folds v into the named histogram (power-of-two buckets).
//
//starnuma:hotpath histograms are fed per dispatched event
func (r *Registry) Observe(name string, v int64) {
	if r == nil {
		return
	}
	if r.hists == nil {
		r.hists = make(map[string]*histogram)
	}
	h := r.hists[name]
	if h == nil {
		h = &histogram{} //starnumavet:allow hotalloc one allocation per histogram name, on its first observation only
		r.hists[name] = h
	}
	h.observe(v)
}

// Point appends a (t, v) sample to the named time series. t is a
// simulation bucket — typically the phase index or a sim-time bucket —
// never wall-clock time.
//
//starnuma:hotpath
func (r *Registry) Point(name string, t int64, v float64) {
	if r == nil {
		return
	}
	if r.series == nil {
		r.series = make(map[string][]Point)
	}
	//starnumavet:allow hotalloc amortized series growth; the backing array is retained for the whole run
	r.series[name] = append(r.series[name], Point{T: t, V: v})
}

// histogram is the mutable accumulator behind Observe.
type histogram struct {
	count    uint64
	sum      int64
	min, max int64
	buckets  [65]uint64 // index = bits.Len64(v); 0 holds v <= 0
}

func (h *histogram) observe(v int64) {
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	idx := 0
	if v > 0 {
		idx = bits.Len64(uint64(v))
	}
	h.buckets[idx]++
}

// snapshot converts the accumulator into its exportable form.
func (h *histogram) snapshot() Histogram {
	out := Histogram{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		lo := int64(0)
		if i > 0 {
			lo = int64(1) << uint(i-1)
		}
		out.Buckets = append(out.Buckets, Bucket{Lo: lo, N: n})
	}
	return out
}

// Snapshot freezes the registry into an immutable, serializable value.
// A nil or empty registry yields nil, so "no metrics collected" and
// "collection disabled" serialize identically.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	s := &Snapshot{}
	if len(r.counters) > 0 {
		s.Counters = make(map[string]uint64, len(r.counters))
		for k, v := range r.counters {
			s.Counters[k] = v
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]Histogram, len(r.hists))
		for k, h := range r.hists {
			s.Histograms[k] = h.snapshot()
		}
	}
	if len(r.series) > 0 {
		s.Series = make(map[string][]Point, len(r.series))
		for _, k := range sortedKeys(r.series) {
			s.Series[k] = append([]Point(nil), r.series[k]...)
		}
	}
	if s.Empty() {
		return nil
	}
	return s
}
