package metrics

import (
	"reflect"
	"testing"
)

// fuzzSeed builds a realistic encoded snapshot covering every section.
func fuzzSeed(f *testing.F) []byte {
	f.Helper()
	r := New()
	r.Add("link/upi/s0-s1/tx_bytes", 123456)
	r.Add("sim/events/wake", 42)
	for _, v := range []int64{0, 1, 100, 100000} {
		r.Observe("sim/queue_depth", v)
	}
	r.Point("pool/resident_pages", 0, 12)
	r.Point("pool/resident_pages", 1, 53)
	b, err := r.Snapshot().Encode()
	if err != nil {
		f.Fatal(err)
	}
	return b
}

// FuzzSnapshotRoundTrip guards the metrics JSON codec the same way
// runner.FuzzResultRoundTrip guards the result cache: decoding
// arbitrary bytes must never panic (snapshots travel inside cached
// results, so any byte string can reach the decoder), and entries that
// do decode must round-trip exactly — a lossy codec would make a warm
// cache dump different metrics than a cold run.
func FuzzSnapshotRoundTrip(f *testing.F) {
	seed := fuzzSeed(f)
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte(`{`))
	f.Add([]byte(`{"counters":{"a":1},"series":{"s":[{"t":0,"v":1e308}]}}`))
	f.Add([]byte(`{"histograms":{"h":{"count":1,"sum":-9,"min":-9,"max":-9}}}`))
	f.Add([]byte{0xff, 0xfe, 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			return // corrupt input: an error, never a panic
		}
		b, err := s.Encode()
		if err != nil {
			t.Fatalf("decoded snapshot failed to re-encode: %v", err)
		}
		s2, err := Decode(b)
		if err != nil {
			t.Fatalf("re-encoded snapshot failed to decode: %v\n%s", err, b)
		}
		if !reflect.DeepEqual(s, s2) {
			t.Fatalf("decode(encode(s)) != s:\n s: %+v\n s2: %+v", s, s2)
		}
		// Dump must be total: any decodable snapshot renders.
		_ = s.Dump()
	})
}
