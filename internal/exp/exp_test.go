package exp

import (
	"encoding/json"
	"flag"
	"strconv"
	"strings"
	"testing"

	"starnuma/internal/core"
	"starnuma/internal/workload"
)

// memoPut seeds the runner's memo directly.
func (r *Runner) memoPut(key string, res *core.Result) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.memo[key] = res
}

// tinyOptions keeps integration tests fast.
func tinyOptions(workloads ...string) Options {
	o := Quick()
	o.Scale = 0.05
	o.Sim.Phases = 2
	o.Sim.PhaseInstr = 200_000
	o.Sim.TimedInstr = 20_000
	o.Sim.WarmupInstr = 2_000
	o.Workloads = workloads
	return o
}

func TestTableRender(t *testing.T) {
	tbl := &Table{
		ID: "t", Title: "title",
		Columns: []string{"a", "longcolumn"},
		Rows:    [][]string{{"x", "1"}, {"yy", "22"}},
		Notes:   "note",
	}
	out := tbl.Render()
	for _, want := range []string{"== t: title ==", "a", "longcolumn", "yy", "paper: note"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestOptionsSpecs(t *testing.T) {
	o := Quick()
	specs, err := o.specs()
	if err != nil || len(specs) != 8 {
		t.Fatalf("specs = %d, %v", len(specs), err)
	}
	o.Workloads = []string{"BFS", "POA"}
	specs, err = o.specs()
	if err != nil || len(specs) != 2 {
		t.Fatalf("filtered specs = %d, %v", len(specs), err)
	}
	o.Workloads = []string{"nope"}
	if _, err := o.specs(); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestFig3Constants(t *testing.T) {
	tbl := Fig3()
	if tbl.ID != "fig3" || len(tbl.Rows) != 7 {
		t.Fatalf("fig3 = %+v", tbl)
	}
	if tbl.Rows[5][1] != "100ns" {
		t.Fatalf("total overhead = %s, want 100ns", tbl.Rows[5][1])
	}
	if tbl.Rows[6][1] != "180ns" {
		t.Fatalf("end-to-end = %s, want 180ns", tbl.Rows[6][1])
	}
}

func TestFig4MatchesPaper(t *testing.T) {
	tbl := Fig4()
	if len(tbl.Rows) != 2 {
		t.Fatalf("fig4 rows = %d", len(tbl.Rows))
	}
	three := parseNS(t, tbl.Rows[0][1])
	four := parseNS(t, tbl.Rows[1][1])
	if three < 300 || three > 366 {
		t.Errorf("3-hop mean = %vns, want ~333", three)
	}
	if four != 200 {
		t.Errorf("4-hop = %vns, want 200", four)
	}
}

func parseNS(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "ns"), 64)
	if err != nil {
		t.Fatalf("bad ns value %q", s)
	}
	return v
}

func TestFig2Shape(t *testing.T) {
	r := NewRunner(tinyOptions())
	tbl, err := r.Fig2()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != len(workload.SharingBuckets) {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Measured page fractions must sum to ~100%.
	var sum float64
	for _, row := range tbl.Rows {
		v, err := strconv.ParseFloat(strings.TrimSuffix(row[2], "%"), 64)
		if err != nil {
			t.Fatal(err)
		}
		sum += v
	}
	if sum < 99 || sum > 101 {
		t.Fatalf("measured pages sum to %v%%", sum)
	}
}

func TestRunnerCaching(t *testing.T) {
	r := NewRunner(tinyOptions("POA", "BFS"))
	specs, _ := r.opts.specs()
	bfs, poa := specs[0], specs[1] // suite order
	base, sn := r.baselineVariant(), r.starnumaVariant()
	a, err := r.grid([]workload.Spec{poa}, base)
	if err != nil {
		t.Fatal(err)
	}
	started := r.Exec().Metrics().RunsStarted

	// A repeated request for memoised cells returns the same results
	// and starts no runs.
	b, err := r.grid([]workload.Spec{poa}, base)
	if err != nil {
		t.Fatal(err)
	}
	if a[0][0] != b[0][0] {
		t.Fatal("cache miss on identical run")
	}
	if got := r.Exec().Metrics().RunsStarted; got != started {
		t.Fatalf("memoised request started %d runs", got-started)
	}

	// A mixed request shaped like RunScenario's — two variants over
	// different spec lists, memoised and fresh cells interleaved —
	// returns results in request order.
	res, err := r.results([]cell{{sn, poa}, {sn, bfs}, {base, poa}})
	if err != nil {
		t.Fatal(err)
	}
	if res[2] != a[0][0] {
		t.Error("memoised baseline cell not returned in place")
	}
	for i, want := range []struct{ workload, policy string }{
		{"POA", "starnuma"}, {"BFS", "starnuma"}, {"POA", "baseline-perfect"},
	} {
		if res[i].Workload != want.workload || res[i].Policy.String() != want.policy {
			t.Errorf("result %d = %s/%s, want %s/%s", i,
				res[i].Workload, res[i].Policy, want.workload, want.policy)
		}
	}
	again, err := r.results([]cell{{sn, bfs}})
	if err != nil {
		t.Fatal(err)
	}
	if again[0] != res[1] {
		t.Error("fresh cell not memoised under its own key")
	}

	// A fresh cell requested twice in one call runs once.
	started = r.Exec().Metrics().RunsStarted
	dup, err := r.results([]cell{{base, bfs}, {base, bfs}})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Exec().Metrics().RunsStarted - started; got != 1 || dup[0] != dup[1] {
		t.Errorf("repeated cell started %d runs, want 1", got)
	}
}

// TestPolicyAppliesToEveryPooledColumn pins that Options.Sim.Policy
// (the -policy flag) reaches every StarNUMA-side variant of a figure,
// not only the default T16 column.
func TestPolicyAppliesToEveryPooledColumn(t *testing.T) {
	opts := tinyOptions("BFS")
	opts.Sim.Policy = core.PolicyNone
	r := NewRunner(opts)
	if _, err := r.Fig12(); err != nil {
		t.Fatal(err)
	}
	for _, run := range r.Manifest().Runs {
		if !strings.HasPrefix(run.Key, "baseline|") && run.Policy != "none" {
			t.Errorf("%s ran policy %s, want none", run.Key, run.Policy)
		}
	}
}

func TestFig8aIntegration(t *testing.T) {
	r := NewRunner(tinyOptions("BFS", "POA"))
	tbl, err := r.Fig8a()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 { // 2 workloads + gmean
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// BFS must speed up; POA must not.
	bfs := parseX(t, tbl.Rows[0][1])
	poa := parseX(t, tbl.Rows[1][1])
	if bfs < 1.1 {
		t.Errorf("BFS T16 speedup = %v, want > 1.1", bfs)
	}
	if poa < 0.95 || poa > 1.05 {
		t.Errorf("POA speedup = %v, want ~1.0", poa)
	}
}

func parseX(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "x"), 64)
	if err != nil {
		t.Fatalf("bad speedup %q", s)
	}
	return v
}

func TestByIDAndIDs(t *testing.T) {
	r := NewRunner(tinyOptions("POA"))
	if _, err := r.ByID("fig3"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ByID("bogus"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	ids := IDs()
	if len(ids) != 21 {
		t.Fatalf("IDs = %v", ids)
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate id %s", id)
		}
		seen[id] = true
	}
}

func TestFig14RunsOnTinyConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	o := tinyOptions()
	r := NewRunner(o)
	tbl, err := r.Fig14()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("fig14 rows = %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		for _, cell := range row[1:] {
			if v := parseX(t, cell); v < 0.5 || v > 5 {
				t.Errorf("implausible speedup %v in %v", v, row)
			}
		}
	}
}

func TestFig9StaticOracleIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	r := NewRunner(tinyOptions("BFS"))
	tbl, err := r.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	// StarNUMA static and dynamic must both beat the baseline.
	static := parseX(t, tbl.Rows[0][2])
	dynamic := parseX(t, tbl.Rows[0][3])
	if static < 1.05 || dynamic < 1.05 {
		t.Errorf("static %v / dynamic %v, want both > 1.05", static, dynamic)
	}
}

func TestQuickAndDefaultOptionsValid(t *testing.T) {
	for _, o := range []Options{Quick(), Default()} {
		if err := o.Sim.Validate(); err != nil {
			t.Fatal(err)
		}
		if o.Scale <= 0 {
			t.Fatal("bad scale")
		}
	}
	if Quick().Sim.Phases >= Default().Sim.Phases {
		t.Fatal("quick should be smaller than default")
	}
	_ = core.BaselineSystem() // keep import honest
}

// TestAllExperimentsTiny drives every experiment end to end at a tiny
// scale with a two-workload subset — the cheapest proof that the whole
// harness stays wired together. Experiments that hard-code their own
// workloads (fig2/13/14, extdrift, ablate) ignore the subset.
func TestAllExperimentsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	r := NewRunner(tinyOptions("BFS", "POA"))
	seen := map[string]bool{}
	for _, id := range IDs() {
		tbl, err := r.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		if tbl.ID == "" || tbl.Title == "" || len(tbl.Columns) == 0 || len(tbl.Rows) == 0 {
			t.Errorf("malformed table %+v", tbl)
		}
		if seen[tbl.ID] {
			t.Errorf("duplicate table %s", tbl.ID)
		}
		seen[tbl.ID] = true
		for _, row := range tbl.Rows {
			if len(row) > len(tbl.Columns) {
				t.Errorf("%s: row wider than header: %v", tbl.ID, row)
			}
		}
		// Every table renders in every format.
		for _, f := range []string{"text", "csv", "md"} {
			if _, err := tbl.Format(f); err != nil {
				t.Errorf("%s: format %s: %v", tbl.ID, f, err)
			}
		}
	}
}

func TestByIDCoversAllIDs(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	r := NewRunner(tinyOptions("POA"))
	for _, id := range []string{"fig3", "fig4"} { // cheap static ones
		tbl, err := r.ByID(id)
		if err != nil || tbl.ID != id {
			t.Errorf("ByID(%s): %v", id, err)
		}
	}
}

// TestRenderRaggedRow pins the writeRow bounds guard: a row with more
// cells than the header must render (extra cells unpadded), not panic.
func TestRenderRaggedRow(t *testing.T) {
	tbl := &Table{
		ID: "t", Title: "ragged",
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"1", "2", "surplus"}, {"3"}},
	}
	out := tbl.Render()
	for _, want := range []string{"surplus", "1", "3"} {
		if !strings.Contains(out, want) {
			t.Errorf("render lost cell %q:\n%s", want, out)
		}
	}
}

// TestRegistryDescriptors checks the declarative registry is well
// formed: complete descriptors, unique identifiers (aliases included),
// and alias resolution through Lookup.
func TestRegistryDescriptors(t *testing.T) {
	exps := Experiments()
	if len(exps) != len(IDs()) {
		t.Fatalf("Experiments %d vs IDs %d", len(exps), len(IDs()))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if e.ID == "" || e.Title == "" || e.PaperRef == "" || e.Run == nil {
			t.Errorf("incomplete descriptor %+v", e)
		}
		for _, id := range append([]string{e.ID}, e.Aliases...) {
			if seen[id] {
				t.Errorf("identifier %q registered twice", id)
			}
			seen[id] = true
			got, ok := Lookup(id)
			if !ok || got.ID != e.ID {
				t.Errorf("Lookup(%q) = %v, %v; want %s", id, got.ID, ok, e.ID)
			}
		}
	}
	if _, ok := Lookup("bogus"); ok {
		t.Error("Lookup resolved an unknown id")
	}
	// The historical alias spellings must keep working.
	for alias, canon := range map[string]string{"table3": "tab3", "table4": "tab4"} {
		if e, ok := Lookup(alias); !ok || e.ID != canon {
			t.Errorf("alias %q -> %v, want %s", alias, e.ID, canon)
		}
	}
}

// TestManifestDeterministic checks the manifest snapshots memoised
// results sorted by key, so identical run sets encode byte-identically.
func TestManifestDeterministic(t *testing.T) {
	mk := func() *Runner {
		r := NewRunner(tinyOptions("BFS"))
		// Seed the memo directly — manifest shape is independent of how
		// results were computed.
		r.memoPut("starnuma-t16|BFS", &core.Result{Workload: "BFS", IPC: 0.5, Tracker: "T16"})
		r.memoPut("baseline|BFS", &core.Result{Workload: "BFS", IPC: 0.4, Tracker: "T16"})
		return r
	}
	m := mk().Manifest()
	if m.Schema != ManifestSchema {
		t.Fatalf("schema %q", m.Schema)
	}
	if len(m.Runs) != 2 || m.Runs[0].Key != "baseline|BFS" || m.Runs[1].Key != "starnuma-t16|BFS" {
		t.Fatalf("runs not sorted by key: %+v", m.Runs)
	}
	a, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(mk().Manifest())
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("identical run sets encode differently")
	}
}

// TestCLIFlagsOptions checks the shared flag helper wires every flag
// into Options, including -metrics enabling collection.
func TestCLIFlagsOptions(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := AddCLIFlags(fs)
	err := fs.Parse([]string{"-quick", "-scale", "0.1", "-phases", "3",
		"-workloads", "BFS,TC", "-jobs", "2", "-nocache", "-metrics", "m.json"})
	if err != nil {
		t.Fatal(err)
	}
	o, err := f.Options(nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.Scale != 0.1 || o.Sim.Phases != 3 || o.Jobs != 2 {
		t.Errorf("options %+v", o)
	}
	if len(o.Workloads) != 2 || o.Workloads[0] != "BFS" {
		t.Errorf("workloads %v", o.Workloads)
	}
	if o.CacheDir != "" {
		t.Errorf("nocache left CacheDir %q", o.CacheDir)
	}
	if !o.Sim.Instrument {
		t.Error("-metrics did not enable instrumentation")
	}

	// Without -metrics, collection stays off.
	fs2 := flag.NewFlagSet("test2", flag.ContinueOnError)
	f2 := AddCLIFlags(fs2)
	if err := fs2.Parse(nil); err != nil {
		t.Fatal(err)
	}
	o2, err := f2.Options(nil)
	if err != nil {
		t.Fatal(err)
	}
	if o2.Sim.Instrument {
		t.Error("collection on by default")
	}
	if o2.CacheDir == "" {
		t.Error("default cache dir missing")
	}
}

// TestCLIFlagsRejectNegative checks that a negative -scale or -phases
// is an error rather than silently running the preset, while 0 still
// keeps the preset.
func TestCLIFlagsRejectNegative(t *testing.T) {
	for _, c := range []struct {
		args []string
		ok   bool
	}{
		{[]string{"-quick", "-scale", "-0.5"}, false},
		{[]string{"-quick", "-phases", "-3"}, false},
		{[]string{"-quick", "-scale", "0", "-phases", "0"}, true},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		f := AddCLIFlags(fs)
		if err := fs.Parse(c.args); err != nil {
			t.Fatal(err)
		}
		o, err := f.Options(nil)
		if (err == nil) != c.ok {
			t.Errorf("%v: err = %v, want ok=%v", c.args, err, c.ok)
		}
		if c.ok && (o.Scale != Quick().Scale || o.Sim.Phases != Quick().Sim.Phases) {
			t.Errorf("%v: 0 did not keep the preset: scale %v phases %d", c.args, o.Scale, o.Sim.Phases)
		}
	}
}
