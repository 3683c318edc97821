package metrics

import (
	"reflect"
	"testing"
)

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	if r.Enabled() {
		t.Fatal("nil registry reports enabled")
	}
	// None of these may panic.
	r.Add("a", 1)
	r.Observe("h", 3)
	r.Point("s", 0, 4)
	if snap := r.Snapshot(); snap != nil {
		t.Fatalf("nil registry snapshot = %+v, want nil", snap)
	}
}

func TestEmptyRegistrySnapshotIsNil(t *testing.T) {
	if snap := New().Snapshot(); snap != nil {
		t.Fatalf("empty registry snapshot = %+v, want nil", snap)
	}
}

func TestRegistryAccumulates(t *testing.T) {
	r := New()
	r.Add("c", 2)
	r.Add("c", 3)
	r.Observe("h", 1)
	r.Observe("h", 7)
	r.Point("s", 0, 10)
	r.Point("s", 1, 20)
	s := r.Snapshot()
	if s.Counters["c"] != 5 {
		t.Errorf("counter = %d, want 5", s.Counters["c"])
	}
	h := s.Histograms["h"]
	if h.Count != 2 || h.Sum != 8 || h.Min != 1 || h.Max != 7 {
		t.Errorf("hist = %+v", h)
	}
	if got := h.Mean(); got != 4 {
		t.Errorf("mean = %v, want 4", got)
	}
	want := []Point{{0, 10}, {1, 20}}
	if !reflect.DeepEqual(s.Series["s"], want) {
		t.Errorf("series = %v, want %v", s.Series["s"], want)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := New()
	for _, v := range []int64{0, 1, 2, 3, 4, 1000} {
		r.Observe("h", v)
	}
	h := r.Snapshot().Histograms["h"]
	// 0 -> bucket lo 0; 1 -> lo 1; 2,3 -> lo 2; 4 -> lo 4; 1000 -> lo 512.
	want := []Bucket{{0, 1}, {1, 1}, {2, 2}, {4, 1}, {512, 1}}
	if !reflect.DeepEqual(h.Buckets, want) {
		t.Errorf("buckets = %v, want %v", h.Buckets, want)
	}
}

func TestSnapshotMerge(t *testing.T) {
	a := New()
	a.Add("c", 1)
	a.Observe("h", 2)
	a.Point("s", 0, 1)
	b := New()
	b.Add("c", 2)
	b.Add("only-b", 7)
	b.Observe("h", 8)
	b.Point("s", 1, 2)

	m := a.Snapshot()
	m.Merge(b.Snapshot())
	if m.Counters["c"] != 3 || m.Counters["only-b"] != 7 {
		t.Errorf("merged counters = %v", m.Counters)
	}
	h := m.Histograms["h"]
	if h.Count != 2 || h.Sum != 10 || h.Min != 2 || h.Max != 8 {
		t.Errorf("merged hist = %+v", h)
	}
	want := []Point{{0, 1}, {1, 2}}
	if !reflect.DeepEqual(m.Series["s"], want) {
		t.Errorf("merged series = %v, want %v", m.Series["s"], want)
	}
	// Merging nil is a no-op.
	before := m.Dump()
	m.Merge(nil)
	if m.Dump() != before {
		t.Error("Merge(nil) changed the snapshot")
	}
}

func TestMergeOrderIndependentForDistinctT(t *testing.T) {
	mk := func(t0, t1 int64) *Snapshot {
		r := New()
		r.Point("s", t0, float64(t0))
		r.Point("s", t1, float64(t1))
		return r.Snapshot()
	}
	a := &Snapshot{}
	a.Merge(mk(0, 1))
	a.Merge(mk(2, 3))
	b := &Snapshot{}
	b.Merge(mk(2, 3))
	b.Merge(mk(0, 1))
	if a.Dump() != b.Dump() {
		t.Fatalf("merge order changed series:\n%s\nvs\n%s", a.Dump(), b.Dump())
	}
}

func TestCloneIsDeepAndNilSafe(t *testing.T) {
	var nilSnap *Snapshot
	if nilSnap.Clone() != nil {
		t.Fatal("nil clone not nil")
	}
	r := New()
	r.Add("c", 1)
	r.Point("s", 0, 1)
	s := r.Snapshot()
	c := s.Clone()
	c.Counters["c"] = 99
	c.Series["s"][0].V = 99
	if s.Counters["c"] != 1 || s.Series["s"][0].V != 1 {
		t.Fatalf("clone shares storage with original: %+v", s)
	}
}

func TestDumpDeterministicAndSorted(t *testing.T) {
	build := func() *Snapshot {
		r := New()
		// Insert in scrambled order; Dump must sort.
		r.Add("z/last", 1)
		r.Add("a/first", 2)
		r.Observe("h/hist", 4)
		r.Point("s/series", 0, 5)
		return r.Snapshot()
	}
	d1, d2 := build().Dump(), build().Dump()
	if d1 != d2 {
		t.Fatalf("dump not deterministic:\n%s\nvs\n%s", d1, d2)
	}
	want := "counter a/first 2\ncounter z/last 1\n" +
		"hist h/hist count=1 sum=4 min=4 max=4 mean=4.000\nseries s/series 0:5\n"
	if d1 != want {
		t.Fatalf("dump = %q, want %q", d1, want)
	}
	var empty *Snapshot
	if empty.Dump() != "" {
		t.Error("nil snapshot dump not empty")
	}
}

func TestNames(t *testing.T) {
	r := New()
	r.Add("b", 1)
	r.Observe("c", 1)
	r.Point("a", 0, 1)
	r.Observe("b", 1) // duplicate across sections
	got := r.Snapshot().Names()
	want := []string{"a", "b", "c"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("names = %v, want %v", got, want)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := New()
	r.Add("c", 42)
	r.Observe("h", 9)
	r.Point("s", 3, 1.5)
	s := r.Snapshot()
	b, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatalf("round trip drifted:\n want %+v\n got %+v", s, got)
	}
	// Byte-stable encoding.
	b2, err := got.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != string(b2) {
		t.Fatalf("re-encoding not byte-identical:\n%s\nvs\n%s", b, b2)
	}
}

func TestDecodeCorrupt(t *testing.T) {
	for _, in := range []string{"{", "null garbage", `{"counters":"nope"}`} {
		if _, err := Decode([]byte(in)); err == nil {
			t.Errorf("Decode(%q) accepted corrupt input", in)
		}
	}
	// Valid null decodes to an empty snapshot.
	s, err := Decode([]byte("null"))
	if err != nil || !s.Empty() {
		t.Fatalf("Decode(null) = %+v, %v", s, err)
	}
}
