package core

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"starnuma/internal/attrib"
	"starnuma/internal/fault"
	"starnuma/internal/migrate"
	"starnuma/internal/stats"
	"starnuma/internal/topology"
	"starnuma/internal/workload"
)

// perturb changes v in place to a different value, depth-first through
// structs and pointers, and reports whether it found a settable leaf.
func perturb(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 1)
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() && perturb(v.Field(i)) {
				return true
			}
		}
		return false
	case reflect.Pointer:
		if v.IsNil() {
			v.Set(reflect.New(v.Type().Elem()))
			return true
		}
		return perturb(v.Elem())
	default:
		return false
	}
	return true
}

// keyInputs is one window's memo-key inputs.
type keyInputs struct {
	sys  SystemConfig
	cfg  SimConfig
	sig  string
	chk  Checkpoint
	repl []bool
}

func (in keyInputs) key() (windowKey, bool) {
	return windowKeyOf(in.sys, in.cfg, in.sig, in.chk, in.repl)
}

// clone deep-copies the slices so a perturbation never reaches the base.
func (in keyInputs) clone() keyInputs {
	c := in
	c.chk.PageHome = append([]topology.NodeID(nil), in.chk.PageHome...)
	c.chk.Migrations = append([]migrate.Migration(nil), in.chk.Migrations...)
	c.repl = append([]bool(nil), in.repl...)
	return c
}

// TestWindowKeySensitivity: every window input the simulation reads
// must change the memo key; only the policy's identity may not.
func TestWindowKeySensitivity(t *testing.T) {
	home := homesAll(64, 0)
	home[5] = 3
	base := keyInputs{
		sys: StarNUMASystem(),
		cfg: tinySim(),
		sig: "stream",
		chk: Checkpoint{Phase: 1, PageHome: home,
			Migrations: []migrate.Migration{{Page: 5, From: 3, To: 16}}},
		repl: make([]bool, 64),
	}
	baseKey, ok := base.key()
	if !ok {
		t.Fatal("base window is not memoizable")
	}
	changes := func(name string, in keyInputs) {
		t.Helper()
		if k, ok := in.key(); ok && k == baseKey {
			t.Errorf("%s: perturbation did not change the window key", name)
		}
	}

	for i := 0; i < reflect.TypeOf(base.sys).NumField(); i++ {
		in := base.clone()
		f := reflect.TypeOf(in.sys).Field(i)
		if !perturb(reflect.ValueOf(&in.sys).Elem().Field(i)) {
			t.Fatalf("SystemConfig.%s: no perturbable leaf", f.Name)
		}
		changes("SystemConfig."+f.Name, in)
	}
	for i := 0; i < reflect.TypeOf(base.cfg).NumField(); i++ {
		f := reflect.TypeOf(base.cfg).Field(i)
		if f.Name == "Policy" {
			continue // only its tracker charging counts, checked below
		}
		in := base.clone()
		if !perturb(reflect.ValueOf(&in.cfg).Elem().Field(i)) {
			t.Fatalf("SimConfig.%s: no perturbable leaf", f.Name)
		}
		changes("SimConfig."+f.Name, in)
	}

	in := base.clone()
	in.chk.PageHome[9] = 16
	changes("PageHome entry", in)
	for i := 0; i < reflect.TypeOf(migrate.Migration{}).NumField(); i++ {
		in := base.clone()
		perturb(reflect.ValueOf(&in.chk.Migrations[0]).Elem().Field(i))
		changes("Migration."+reflect.TypeOf(migrate.Migration{}).Field(i).Name, in)
	}
	in = base.clone()
	in.chk.Migrations = append(in.chk.Migrations, migrate.Migration{Page: 7, From: 0, To: 16})
	changes("extra migration", in)
	in = base.clone()
	in.repl[9] = true
	changes("Replicated bit", in)
	in = base.clone()
	in.repl = nil
	changes("no replica set", in)
	in = base.clone()
	in.chk.Phase++
	changes("phase", in)
	in = base.clone()
	in.sig += "x"
	changes("stream Sig", in)

	in = base.clone()
	in.sig = ""
	if _, ok := in.key(); ok {
		t.Error("a stream without a signature was memoizable")
	}

	// Policies step C cannot tell apart share one key; a policy that
	// changes tracker charging does not.
	for _, tc := range []struct {
		a, b PolicySpec
		same bool
	}{
		{PolicyStarNUMA, PolicySpec{Name: "epoch-adaptive"}, true},
		{PolicyNone, PolicyOracle, true},
		{PolicyStarNUMA, PolicySpec{Name: "starnuma", Params: migrate.Params{"seed": 2}}, true},
		{PolicyStarNUMA, PolicyNone, false},
	} {
		a, b := base.clone(), base.clone()
		a.cfg.Policy, b.cfg.Policy = tc.a, tc.b
		if policyChargesTracker(a.cfg) != policyChargesTracker(b.cfg) && tc.same {
			t.Fatalf("%s and %s disagree on UsesTracker", tc.a, tc.b)
		}
		ka, _ := a.key()
		kb, _ := b.key()
		if (ka == kb) != tc.same {
			t.Errorf("%s vs %s: same key = %v, want %v", tc.a, tc.b, ka == kb, tc.same)
		}
	}
}

// memoEntry returns the resident memo value for key itself, not a copy.
func memoEntry(t *testing.T, key windowKey) windowStats {
	t.Helper()
	return windowMemo.Do(key, func() windowStats {
		t.Fatal("window is not resident")
		return windowStats{}
	})
}

// fingerprint renders everything reachable from w, independently of
// windowStats.clone, so a later comparison sees a write through any
// alias.
func fingerprint(w windowStats) string {
	met, err := json.Marshal(w.met)
	if err != nil {
		panic(err)
	}
	var prof attrib.WindowProfile
	if w.prof != nil {
		prof = *w.prof
	}
	return fmt.Sprintf("%+v|%+v|%+v|%s", w, *w.amat, prof, met)
}

// planWindowKey is the memo key RunWindow computes for p's i-th window.
func planWindowKey(t *testing.T, p *Plan, gen AccessSource, i int) windowKey {
	t.Helper()
	chk := p.Checkpoint(i)
	key, ok := windowKeyOf(p.sys, p.cfg, gen.StreamSig(p.cfg.TimedInstr),
		chk, p.tr.Replicated)
	if !ok {
		t.Fatal("window is not memoizable")
	}
	return key
}

// TestWindowMemoMatchesSimulation runs the policysweep grid on Masstree
// through Plan.RunWindow and requires every window, recalled or not, to
// equal a direct simulation. It then checks that recalls never alias
// the memo entry, including under concurrent recall.
func TestWindowMemoMatchesSimulation(t *testing.T) {
	sys := StarNUMASystem()
	spec := tinySpec(t, "Masstree")
	topo := topology.New(sys.Topology)
	newGen := func() AccessSource {
		g, err := workload.NewGenerator(spec, topo.Sockets(), sys.CoresPerSocket)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	before := WindowMemo()
	var plans []*Plan
	for _, d := range migrate.Policies() {
		for _, plan := range []*fault.Plan{nil, fault.FlapPlan(), fault.DegradePlan(4)} {
			cfg := tinySim()
			cfg.Policy = PolicySpec{Name: d.Name}
			cfg.Faults = plan
			p, err := NewPlan(sys, cfg, newGen())
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < p.NumWindows(); i++ {
				got := p.RunWindow(i, newGen())
				want := runWindow(sys, p.cfg, newGen(), p.Checkpoint(i), p.tr.Replicated)
				if !reflect.DeepEqual(got.stats, want) {
					t.Fatalf("%s/%v window %d: memoized path diverges from simulation", d.Name, plan, i)
				}
			}
			plans = append(plans, p)
		}
	}
	if hits := WindowMemo().Hits - before.Hits; hits == 0 {
		t.Fatal("the policysweep grid recalled no window")
	}

	t.Run("no aliasing", func(t *testing.T) {
		// An instrumented variant exercises the metrics and attribution
		// copies as well.
		cfg := tinySim()
		cfg.CollectMetrics = true
		cfg.Attrib = true
		p, err := NewPlan(sys, cfg, newGen())
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []*Plan{plans[0], p} {
			p.RunWindow(0, newGen()) // memoized from here on
			e := memoEntry(t, planWindowKey(t, p, newGen(), 0))
			pristine := fingerprint(e)
			w := p.RunWindow(0, newGen())
			want := runWindow(sys, p.cfg, newGen(), p.Checkpoint(0), p.tr.Replicated)
			if !reflect.DeepEqual(w.stats, want) {
				t.Fatalf("%s: recalled window diverges from simulation", p.cfg.Policy)
			}
			for k := 0; k < 2; k++ {
				r := p.Assemble([]Window{w, p.RunWindow(1, newGen())})
				if r.Metrics != nil {
					for _, h := range r.Metrics.Histograms {
						h.Buckets[0].N++
					}
				}
			}
			// Scribble over everything the caller can reach.
			w.stats.ipcs[0]++
			w.stats.amat.Observe(stats.Local, 1)
			if w.stats.prof != nil {
				w.stats.prof.Cells[0]++
			}
			if fingerprint(e) != pristine {
				t.Fatal("merging a recalled window mutated the memo entry")
			}
		}
	})

	t.Run("concurrent recall", func(t *testing.T) {
		p := plans[len(plans)-1]
		want := runWindow(sys, p.cfg, newGen(), p.Checkpoint(0), p.tr.Replicated)
		p.RunWindow(0, newGen())
		gens := make([]AccessSource, 8)
		for g := range gens {
			gens[g] = newGen()
		}
		var wg sync.WaitGroup
		got := make([]Window, len(gens))
		for g := range got {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				got[g] = p.RunWindow(0, gens[g])
			}(g)
		}
		wg.Wait()
		for g, w := range got {
			if !reflect.DeepEqual(w.stats, want) {
				t.Fatalf("goroutine %d recalled a different window", g)
			}
		}
	})
}
