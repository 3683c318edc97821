package main

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"starnuma/internal/attrib"
	"starnuma/internal/core"
	"starnuma/internal/exp"
	"starnuma/internal/metrics"
)

func sampleSnapshot(scale uint64) *metrics.Snapshot {
	return &metrics.Snapshot{
		Counters: map[string]uint64{
			"link/upi/s0-s1/busy_ps":   100 * scale,
			"link/upi/s0-s1/queued_ps": 40 * scale,
			"link/upi/s0-s1/tx_bytes":  640 * scale,
			"link/upi/s0-s1/messages":  10 * scale,
			"link/cxl/s0-pool/busy_ps": 300 * scale,
			"coherence/transactions":   7 * scale,
		},
		Histograms: map[string]metrics.Histogram{
			"sim/queue_depth": {Count: 4, Sum: 10, Min: 1, Max: 4,
				Buckets: []metrics.Bucket{{Lo: 1, N: 2}, {Lo: 2, N: 2}}},
		},
		Series: map[string][]metrics.Point{
			"core/instructions": {{T: 0, V: 1000}, {T: 1, V: 1100}},
		},
	}
}

func TestDumpGolden(t *testing.T) {
	runs := []exp.ManifestRun{{Key: "starnuma-t16|BFS", Metrics: sampleSnapshot(1)}}
	got := dumpText(runs)
	want := `== starnuma-t16|BFS ==
counter coherence/transactions 7
counter link/cxl/s0-pool/busy_ps 300
counter link/upi/s0-s1/busy_ps 100
counter link/upi/s0-s1/messages 10
counter link/upi/s0-s1/queued_ps 40
counter link/upi/s0-s1/tx_bytes 640
hist sim/queue_depth count=4 sum=10 min=1 max=4 mean=2.500
series core/instructions 0:1000 1:1100

`
	if got != want {
		t.Errorf("dumpText mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestDiffIdenticalAndChanged(t *testing.T) {
	a, b := sampleSnapshot(1), sampleSnapshot(1)
	if got := diffText(a, b); got != "no differences\n" {
		t.Errorf("identical snapshots: %q", got)
	}
	c := sampleSnapshot(2)
	out := diffText(a, c)
	if !strings.Contains(out, "coherence/transactions") {
		t.Errorf("changed counter missing from diff:\n%s", out)
	}
	if strings.Contains(out, "sim/queue_depth") {
		t.Errorf("unchanged histogram reported:\n%s", out)
	}
}

func TestTopRanksLinksByBusy(t *testing.T) {
	out := topText(sampleSnapshot(1), 1)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("want header + 1 row, got:\n%s", out)
	}
	if !strings.Contains(lines[1], "link/cxl/s0-pool") {
		t.Errorf("hottest link should be cxl (busy 300):\n%s", out)
	}
}

// sampleProfile is a two-socket stall profile with one conserving
// window.
func sampleProfile() *attrib.Profile {
	p := attrib.NewProfile(2)
	l := attrib.NewLedger(2)
	l.Charge(0, attrib.DRAM, 300)
	l.Charge(1, attrib.CXLQueue, 200)
	p.Append(l.Window(0, 500))
	return p
}

func TestDecodeRunsManifest(t *testing.T) {
	m := &exp.Manifest{
		Schema: exp.ManifestSchema,
		Runs: []exp.ManifestRun{
			{Key: "baseline|BFS", Workload: "BFS", Metrics: sampleSnapshot(1), Profile: sampleProfile()},
			{Key: "starnuma-t16|BFS", Workload: "BFS"},
		},
	}
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	runs, err := decodeRuns(b, "manifest.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 || runs[0].Key != "baseline|BFS" || runs[1].Metrics != nil || runs[1].Profile != nil {
		t.Fatalf("unexpected decode: %+v", runs)
	}
	if !reflect.DeepEqual(runs[0].Profile, m.Runs[0].Profile) {
		t.Errorf("profile did not round-trip: %+v", runs[0].Profile)
	}
}

func TestDecodeRunsCacheEntryAndBareResult(t *testing.T) {
	res := &core.Result{Workload: "BFS", Metrics: sampleSnapshot(1), Profile: sampleProfile()}

	entry := struct {
		Version string       `json:"version"`
		Key     string       `json:"key"`
		Result  *core.Result `json:"result"`
	}{"starnuma-results-v1", "abc123", res}
	b, err := json.Marshal(entry)
	if err != nil {
		t.Fatal(err)
	}
	runs, err := decodeRuns(b, "abc123.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].Key != "abc123" || runs[0].Metrics.Empty() || runs[0].Profile == nil {
		t.Errorf("cache entry decode: %+v", runs)
	}

	b, err = json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	runs, err = decodeRuns(b, "res.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].Key != "BFS" || runs[0].Metrics.Empty() || runs[0].Profile == nil {
		t.Errorf("bare result decode: %+v", runs)
	}
}

// badProfile has one window whose cell array is too short for its two
// sockets, so Profile.Validate rejects it.
const badProfile = `{"sockets":2,"categories":["dram"],"windows":[{"phase":0,"total_ps":1,"cells":[1]}]}`

func TestDecodeRunsRejectsGarbage(t *testing.T) {
	for _, c := range []struct{ name, doc, want string }{
		{"empty", ``, "not a JSON document"},
		{"not JSON", `not json`, "not a JSON document"},
		{"truncated", `{"schema":`, "not a JSON document"},
		{"unknown schema", `{"schema":"bogus-v9"}`, "unknown manifest schema"},
		{"old stall document", `{"schema":"starnuma-stallprof-v1","runs":[{"key":"k","profile":` + badProfile + `}]}`,
			"unknown manifest schema"},
		{"mistyped runs", `{"schema":"` + exp.ManifestSchema + `","runs":{}}`, "manifest:"},
		{"run without key", `{"schema":"` + exp.ManifestSchema + `","runs":[{"workload":"BFS"}]}`, "run 0 has no key"},
		{"manifest profile", `{"schema":"` + exp.ManifestSchema + `","runs":[{"key":"k","profile":` + badProfile + `}]}`,
			"run k: attrib: window 0 has 1 cells"},
		{"negative total", `{"schema":"` + exp.ManifestSchema + `","runs":[{"key":"k","profile":` +
			`{"sockets":1,"categories":["dram"],"windows":[{"phase":0,"total_ps":-1,"cells":[1]}]}}]}`,
			"negative total"},
		{"no sockets", `{"schema":"` + exp.ManifestSchema + `","runs":[{"key":"k","profile":{"sockets":0,"categories":["dram"]}}]}`,
			"non-positive socket count"},
		{"cache entry profile", `{"version":"v","key":"c","result":{"Profile":` + badProfile + `}}`, "run c: attrib:"},
		{"bare result profile", `{"Workload":"BFS","Profile":` + badProfile + `}`, "run BFS: attrib:"},
	} {
		_, err := decodeRuns([]byte(c.doc), "x.json")
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err %v, want one containing %q", c.name, err, c.want)
		}
	}
}

// TestDecodeRunsRejectsStallDocCases runs the rejection inputs of the
// former stall-profile document decoder through decodeRuns: as written,
// in the retired starnuma-stallprof-v1 schema, and carried over onto the
// manifest schema. A manifest run without a profile is a metrics-only run,
// so that one case is now accepted.
func TestDecodeRunsRejectsStallDocCases(t *testing.T) {
	const oneCell = `{"sockets":1,"categories":["x"],"windows":[]}`
	const twoCells = `{"sockets":1,"categories":["x"],"windows":[{"phase":0,"total_ps":1,"cells":[1,2]}]}`
	stall := func(runs string) string { return `{"schema":"starnuma-stallprof-v1","runs":[` + runs + `]}` }
	manifest := func(runs string) string { return `{"schema":"` + exp.ManifestSchema + `","runs":[` + runs + `]}` }
	for _, c := range []struct{ name, doc, want string }{
		{"empty", ``, "not a JSON document"},
		{"truncated", `{`, "not a JSON document"},
		{"wrong schema", `{"schema":"wrong","runs":[]}`, "unknown manifest schema"},
		{"stall run without key", stall(`{"key":"","profile":` + oneCell + `}`), "unknown manifest schema"},
		{"stall run without profile", stall(`{"key":"k"}`), "unknown manifest schema"},
		{"stall invalid profile", stall(`{"key":"k","profile":` + twoCells + `}`), "unknown manifest schema"},
		{"manifest run without key", manifest(`{"key":"","profile":` + oneCell + `}`), "run 0 has no key"},
		{"manifest invalid profile", manifest(`{"key":"k","profile":` + twoCells + `}`), "run k: attrib: window 0 has 2 cells"},
	} {
		_, err := decodeRuns([]byte(c.doc), "x.json")
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err %v, want one containing %q", c.name, err, c.want)
		}
	}
	runs, err := decodeRuns([]byte(manifest(`{"key":"k"}`)), "x.json")
	if err != nil || len(runs) != 1 || runs[0].Profile != nil {
		t.Errorf("manifest run without profile: runs %+v, err %v", runs, err)
	}
}

// FuzzDecodeRuns pins that the one decoder of the metrics and prof
// commands never panics on arbitrary bytes, and that every document it
// accepts renders through every metrics and prof renderer.
func FuzzDecodeRuns(f *testing.F) {
	good, err := json.Marshal(&exp.Manifest{Schema: exp.ManifestSchema, Runs: []exp.ManifestRun{
		{Key: "starnuma-t16|BFS", Workload: "BFS", Policy: "starnuma", Metrics: sampleSnapshot(1), Profile: sampleProfile()},
	}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(""))
	f.Add([]byte("{"))
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte(`{"schema":"` + exp.ManifestSchema + `","runs":[{"key":"k","profile":{"sockets":1,"categories":["a"],"windows":[{"phase":0,"total_ps":-1,"cells":[1]}]}}]}`))
	f.Add([]byte(`{"version":"v","key":"c","result":{"Workload":"BFS","Profile":` + badProfile + `}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		runs, err := decodeRuns(data, "fuzz.json")
		if err != nil {
			return
		}
		_ = dumpText(runs)
		_ = topText(combined(runs), 3)
		var prof []attrib.Run
		for _, r := range runs {
			if r.Profile != nil {
				prof = append(prof, attrib.Run{Key: r.Key, Workload: r.Workload, Policy: r.Policy, Profile: r.Profile})
			}
		}
		_ = attrib.RenderReport(prof, true)
		_ = attrib.RenderFolded(prof)
		if _, err := attrib.RenderSpeedscope(prof); err != nil {
			t.Fatalf("accepted document fails speedscope render: %v", err)
		}
		a, _, _ := attrib.GroupTotals(prof, "")
		_ = attrib.RenderDiff("a", "b", a, a)
	})
}
