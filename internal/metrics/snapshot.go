package metrics

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Point is one time-series sample: T is a simulation bucket (phase
// index or sim-time bucket), V the sampled value.
type Point struct {
	T int64   `json:"t"`
	V float64 `json:"v"`
}

// Bucket is one populated power-of-two histogram bucket: Lo is the
// bucket's inclusive lower bound, N its population.
type Bucket struct {
	Lo int64  `json:"lo"`
	N  uint64 `json:"n"`
}

// Histogram is the exportable form of a histogram: summary moments plus
// the populated buckets sorted by lower bound.
type Histogram struct {
	Count   uint64   `json:"count"`
	Sum     int64    `json:"sum"`
	Min     int64    `json:"min"`
	Max     int64    `json:"max"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Mean returns the histogram's arithmetic mean (0 when empty).
func (h Histogram) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// merge folds o into h.
func (h Histogram) merge(o Histogram) Histogram {
	if o.Count == 0 {
		return h
	}
	if h.Count == 0 {
		// Copy the buckets so the merged result never aliases o.
		o.Buckets = append([]Bucket(nil), o.Buckets...)
		return o
	}
	out := Histogram{
		Count: h.Count + o.Count,
		Sum:   h.Sum + o.Sum,
		Min:   h.Min,
		Max:   h.Max,
	}
	if o.Min < out.Min {
		out.Min = o.Min
	}
	if o.Max > out.Max {
		out.Max = o.Max
	}
	// Merge the two sorted bucket lists.
	i, j := 0, 0
	for i < len(h.Buckets) || j < len(o.Buckets) {
		switch {
		case j >= len(o.Buckets) || (i < len(h.Buckets) && h.Buckets[i].Lo < o.Buckets[j].Lo):
			out.Buckets = append(out.Buckets, h.Buckets[i])
			i++
		case i >= len(h.Buckets) || o.Buckets[j].Lo < h.Buckets[i].Lo:
			out.Buckets = append(out.Buckets, o.Buckets[j])
			j++
		default:
			out.Buckets = append(out.Buckets, Bucket{Lo: h.Buckets[i].Lo, N: h.Buckets[i].N + o.Buckets[j].N})
			i++
			j++
		}
	}
	return out
}

// Snapshot is an immutable, serializable metrics export. The JSON
// encoding is byte-stable: encoding/json sorts map keys, bucket and
// series orders are deterministic, and every value derives from the
// simulation alone.
type Snapshot struct {
	Counters   map[string]uint64    `json:"counters,omitempty"`
	Histograms map[string]Histogram `json:"histograms,omitempty"`
	Series     map[string][]Point   `json:"series,omitempty"`
}

// Empty reports whether the snapshot carries no metrics at all.
func (s *Snapshot) Empty() bool {
	return s == nil || (len(s.Counters) == 0 &&
		len(s.Histograms) == 0 && len(s.Series) == 0)
}

// Clone returns a deep copy (nil in, nil out).
func (s *Snapshot) Clone() *Snapshot {
	if s == nil {
		return nil
	}
	c := &Snapshot{}
	c.Merge(s)
	return c
}

// Merge folds o into s: counters and histograms sum, and series
// points accumulate sorted by T (stable, so same-T points keep merge
// order). Merging in checkpoint order therefore yields identical
// snapshots regardless of how the windows were executed.
func (s *Snapshot) Merge(o *Snapshot) {
	if o == nil {
		return
	}
	for _, k := range sortedKeys(o.Counters) {
		if s.Counters == nil {
			s.Counters = make(map[string]uint64, len(o.Counters))
		}
		s.Counters[k] += o.Counters[k]
	}
	for _, k := range sortedKeys(o.Histograms) {
		if s.Histograms == nil {
			s.Histograms = make(map[string]Histogram, len(o.Histograms))
		}
		s.Histograms[k] = s.Histograms[k].merge(o.Histograms[k])
	}
	for _, k := range sortedKeys(o.Series) {
		if s.Series == nil {
			s.Series = make(map[string][]Point, len(o.Series))
		}
		merged := append(s.Series[k], o.Series[k]...)
		sort.SliceStable(merged, func(i, j int) bool { return merged[i].T < merged[j].T })
		s.Series[k] = merged
	}
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Names returns every metric name in the snapshot, sorted, without
// duplicates across sections.
func (s *Snapshot) Names() []string {
	if s == nil {
		return nil
	}
	seen := make(map[string]bool)
	var names []string
	add := func(ks []string) {
		for _, k := range ks {
			if !seen[k] {
				seen[k] = true
				names = append(names, k)
			}
		}
	}
	add(sortedKeys(s.Counters))
	add(sortedKeys(s.Histograms))
	add(sortedKeys(s.Series))
	sort.Strings(names)
	return names
}

// Encode renders the snapshot as canonical JSON.
func (s *Snapshot) Encode() ([]byte, error) {
	return json.Marshal(s)
}

// Decode parses a snapshot previously produced by Encode. Corrupt
// input returns an error, never a panic.
func Decode(b []byte) (*Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("metrics: decode: %w", err)
	}
	return &s, nil
}

// Dump renders the snapshot as deterministic plain text, one metric per
// line, sorted by name within each section — the format `starnuma
// metrics dump` prints and the determinism tests pin byte for byte.
func (s *Snapshot) Dump() string {
	if s.Empty() {
		return ""
	}
	var b strings.Builder
	for _, k := range sortedKeys(s.Counters) {
		fmt.Fprintf(&b, "counter %s %d\n", k, s.Counters[k])
	}
	for _, k := range sortedKeys(s.Histograms) {
		h := s.Histograms[k]
		fmt.Fprintf(&b, "hist %s count=%d sum=%d min=%d max=%d mean=%.3f\n",
			k, h.Count, h.Sum, h.Min, h.Max, h.Mean())
	}
	for _, k := range sortedKeys(s.Series) {
		fmt.Fprintf(&b, "series %s", k)
		for _, p := range s.Series[k] {
			fmt.Fprintf(&b, " %d:%g", p.T, p.V)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
