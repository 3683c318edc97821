package core

import (
	"encoding/json"
	"reflect"
	"slices"
	"testing"

	"starnuma/internal/attrib"
	"starnuma/internal/coherence"
	"starnuma/internal/metrics"
	"starnuma/internal/tlb"
)

// resultKeys is the top-level key set of an encoded Result with Metrics
// and Profile present. JSON flattens the embedded Counters, so each
// counter keeps its own top-level key: the result cache and every
// reader of cached results decode this layout.
var resultKeys = []string{
	"Workload", "Policy", "Tracker", "IPC", "AMAT", "MPKI", "MigrStats",
	"Dir", "PoolPages", "MigrStalledAccesses", "TrackerFlushes", "TLB",
	"ReplicatedPages", "ReplicaReads", "ReplicaWriteStalls", "PageFaults",
	"FaultDegradedSends", "FaultFlapRetries", "FaultDrainedPages",
	"SimulatedTime", "Instructions", "Misses", "Metrics", "Profile",
}

// sampleCounters sets every counter to a distinct non-zero value.
func sampleCounters() Counters {
	return Counters{
		Instructions: 12, Misses: 13, SimulatedTime: 11,
		Dir:                 coherence.Stats{Transactions: 14, BT3Hop: 15, BT4Hop: 16, Invalidations: 17},
		TLB:                 tlb.Stats{Hits: 18, Walks: 19, ShootdownWalks: 20, Shootdowns: 21, ShootdownTargets: 22},
		MigrStalledAccesses: 2, ReplicaReads: 5, ReplicaWriteStalls: 6,
		PageFaults: 7, FaultDegradedSends: 8, FaultFlapRetries: 9,
	}
}

// checkNoZeroLeaf fails if any numeric field reachable from v is zero.
func checkNoZeroLeaf(t *testing.T, path string, v reflect.Value) {
	t.Helper()
	if v.Kind() == reflect.Struct {
		for i := 0; i < v.NumField(); i++ {
			checkNoZeroLeaf(t, path+"."+v.Type().Field(i).Name, v.Field(i))
		}
		return
	}
	if v.IsZero() {
		t.Errorf("%s is zero; the test would not see it dropped", path)
	}
}

func TestResultJSONKeepsTopLevelKeys(t *testing.T) {
	c := sampleCounters()
	checkNoZeroLeaf(t, "Counters", reflect.ValueOf(c))
	r := &Result{Workload: "BFS", Counters: c,
		Metrics: &metrics.Snapshot{}, Profile: attrib.NewProfile(2)}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range m {
		got = append(got, k)
	}
	slices.Sort(got)
	want := slices.Clone(resultKeys)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("encoded Result keys:\n got %v\nwant %v", got, want)
	}
	var back Result
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters != c {
		t.Fatalf("counters did not round-trip: %+v, want %+v", back.Counters, c)
	}
}

// TestResultJSONDecodesFlatLayout decodes a Result document written in
// the flat layout, each counter a top-level key, and requires the same
// counters back.
func TestResultJSONDecodesFlatLayout(t *testing.T) {
	const doc = `{"Workload":"BFS","Policy":{"name":"starnuma","params":null},` +
		`"Tracker":"T16","IPC":0.5,"AMAT":null,"MPKI":3,` +
		`"MigrStats":{"PagesToPool":0,"PagesToSocket":0,"Evictions":0,"PingPongSkips":0,"EvictFailures":0,"LinkBackoffPhases":0},` +
		`"Dir":{"Transactions":14,"BT3Hop":15,"BT4Hop":16,"Invalidations":17},` +
		`"PoolPages":1,"MigrStalledAccesses":2,"TrackerFlushes":3,` +
		`"TLB":{"Hits":18,"Walks":19,"ShootdownWalks":20,"Shootdowns":21,"ShootdownTargets":22},` +
		`"ReplicatedPages":4,"ReplicaReads":5,"ReplicaWriteStalls":6,"PageFaults":7,` +
		`"FaultDegradedSends":8,"FaultFlapRetries":9,"FaultDrainedPages":10,` +
		`"SimulatedTime":11,"Instructions":12,"Misses":13}`
	var r Result
	if err := json.Unmarshal([]byte(doc), &r); err != nil {
		t.Fatal(err)
	}
	if want := sampleCounters(); r.Counters != want {
		t.Fatalf("decoded counters %+v, want %+v", r.Counters, want)
	}
	if r.PoolPages != 1 || r.TrackerFlushes != 3 || r.ReplicatedPages != 4 || r.FaultDrainedPages != 10 {
		t.Fatalf("decoded step-B fields wrong: %+v", r)
	}
}

// TestCountersAddSumsEveryField adds a sample to itself through
// Counters.add and requires every counter doubled, so a counter added
// to the struct but not to add fails here.
func TestCountersAddSumsEveryField(t *testing.T) {
	c := sampleCounters()
	checkNoZeroLeaf(t, "Counters", reflect.ValueOf(c))
	var sum Counters
	sum.add(c)
	sum.add(c)
	var walk func(path string, got, one reflect.Value)
	walk = func(path string, got, one reflect.Value) {
		switch got.Kind() {
		case reflect.Struct:
			for i := 0; i < got.NumField(); i++ {
				walk(path+"."+got.Type().Field(i).Name, got.Field(i), one.Field(i))
			}
		case reflect.Uint64:
			if got.Uint() != 2*one.Uint() {
				t.Errorf("%s = %d, want %d", path, got.Uint(), 2*one.Uint())
			}
		case reflect.Int64:
			if got.Int() != 2*one.Int() {
				t.Errorf("%s = %d, want %d", path, got.Int(), 2*one.Int())
			}
		default:
			t.Errorf("%s has kind %v, which the test cannot check", path, got.Kind())
		}
	}
	walk("Counters", reflect.ValueOf(sum), reflect.ValueOf(c))
}
