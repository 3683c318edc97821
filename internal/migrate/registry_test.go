package migrate

import (
	"strings"
	"testing"

	"starnuma/internal/topology"
	"starnuma/internal/tracker"
)

// testEnv is a 16-socket pooled environment matching newState's shape.
func testEnv() PolicyEnv {
	return PolicyEnv{
		Sockets:                    16,
		HasPool:                    true,
		PoolNode:                   poolNode,
		PoolCapacityPages:          512,
		Pages:                      testPages,
		NumRegions:                 testPages / regionPages,
		RegionPages:                regionPages,
		TrackerKind:                tracker.T16,
		MeanRegionAccessesPerPhase: 100,
		Seed:                       1,
		WorkloadSeed:               7,
	}
}

// conformanceState builds a state with both tracker and perfect-count
// heat: region 2 hot and widely shared, region 3 hot with two sharers.
func conformanceState() *State {
	tb := tracker.NewTable(tracker.T16, testPages, regionPages)
	st := newState(tb, 512)
	st.Counts = NewPageCounts(testPages, 16)
	heatBoth(st, 2, 100, allSockets()...)
	heatBoth(st, 3, 200, 5, 6)
	return st
}

// heatBoth mirrors heatRegion into the per-page counts so tracker-driven
// and count-driven policies both see the load.
func heatBoth(st *State, r, n int, sockets ...int) {
	first, _ := st.Tracker.PageRange(r)
	for i := 0; i < n; i++ {
		for _, s := range sockets {
			pg := uint32(first + i%regionPages)
			st.Tracker.Record(s, pg)
			st.Counts.Record(s, pg)
		}
	}
}

func TestRegistryHasTournamentPolicies(t *testing.T) {
	want := []string{"starnuma", "baseline-perfect", "none",
		"epoch-adaptive", "bandwidth-aware", "replication", "oracle"}
	names := PolicyNames()
	if len(names) < len(want) {
		t.Fatalf("registry has %d policies, want >= %d", len(names), len(want))
	}
	have := map[string]bool{}
	for _, n := range names {
		have[n] = true
	}
	for _, n := range want {
		if !have[n] {
			t.Errorf("policy %q not registered", n)
		}
	}
}

// TestRegistryConformance runs the contract every registered policy must
// satisfy: constructible with default params, a no-op on a heat-free
// state, deterministic decisions for a fixed seed, and rejection of
// parameters outside the declared schema.
func TestRegistryConformance(t *testing.T) {
	for _, d := range Policies() {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			build := func() Policy {
				p, err := NewPolicy(d.Name, nil, testEnv())
				if err != nil {
					t.Fatalf("NewPolicy(%q): %v", d.Name, err)
				}
				return p
			}

			// Heat-free state: no decisions, placement untouched.
			empty := conformanceState()
			empty.Tracker.Reset()
			empty.Counts = NewPageCounts(testPages, 16)
			if ms := build().Decide(0, empty); len(ms) != 0 {
				t.Fatalf("decided %d migrations with no recorded heat", len(ms))
			}
			for pg, h := range empty.PageHome {
				if h != 0 {
					t.Fatalf("heat-free Decide moved page %d to %v", pg, h)
				}
			}

			// Deterministic decisions: two fresh instances over identical
			// states agree phase by phase.
			pa, pb := build(), build()
			sa, sb := conformanceState(), conformanceState()
			for phase := 0; phase < 3; phase++ {
				ma, mb := pa.Decide(phase, sa), pb.Decide(phase, sb)
				if len(ma) != len(mb) {
					t.Fatalf("phase %d: %d vs %d migrations", phase, len(ma), len(mb))
				}
				for i := range ma {
					if ma[i] != mb[i] {
						t.Fatalf("phase %d migration %d: %+v vs %+v", phase, i, ma[i], mb[i])
					}
				}
			}
			for pg := range sa.PageHome {
				if sa.PageHome[pg] != sb.PageHome[pg] {
					t.Fatalf("placements diverged at page %d", pg)
				}
			}
			if pa.Stats() != pb.Stats() {
				t.Fatalf("stats diverged: %+v vs %+v", pa.Stats(), pb.Stats())
			}

			// Unknown parameters are rejected by name.
			_, err := NewPolicy(d.Name, Params{"definitely_not_a_param": 1}, testEnv())
			if err == nil || !strings.Contains(err.Error(), "definitely_not_a_param") {
				t.Fatalf("unknown param accepted (err = %v)", err)
			}
		})
	}
}

// TestFactoriesRejectNegativeCounts: parameters come from -policy and
// scenario files, and a negative access or page count would wrap when
// converted to an unsigned field, so the factories reject it by name.
func TestFactoriesRejectNegativeCounts(t *testing.T) {
	for _, tc := range []struct {
		policy, param string
	}{
		{"starnuma", "hi_start"},
		{"starnuma", "lo_start"},
		{"starnuma", "hi_min"},
		{"starnuma", "hi_max"},
		{"starnuma", "lo_max"},
		{"starnuma", "migration_limit"},
		{"epoch-adaptive", "hi_start"},
		{"baseline-perfect", "min_accesses"},
		{"baseline-perfect", "migration_limit"},
	} {
		_, err := NewPolicy(tc.policy, Params{tc.param: -1}, testEnv())
		if err == nil || !strings.Contains(err.Error(), tc.param) {
			t.Errorf("%s %s=-1: want an error naming the parameter, got %v", tc.policy, tc.param, err)
		}
	}
}

func TestNewPolicyUnknownName(t *testing.T) {
	_, err := NewPolicy("no-such-policy", nil, testEnv())
	if err == nil || !strings.Contains(err.Error(), "starnuma") {
		t.Fatalf("want error listing registered policies, got %v", err)
	}
}

func TestCheckParamsSchema(t *testing.T) {
	if err := CheckParams("starnuma", Params{"hi_start": 64, "seed": 2}); err != nil {
		t.Fatalf("declared params rejected: %v", err)
	}
	err := CheckParams("oracle", Params{"hi_start": 64})
	if err == nil || !strings.Contains(err.Error(), "pool_sharer_threshold") {
		t.Fatalf("want error naming accepted params, got %v", err)
	}
}

// TestEnvNormalize: policies that consume the Link/Feedback closures must
// work when the caller left them nil (NewPolicy normalizes).
func TestEnvNormalize(t *testing.T) {
	for _, name := range []string{"bandwidth-aware", "epoch-adaptive"} {
		p, err := NewPolicy(name, nil, testEnv())
		if err != nil {
			t.Fatal(err)
		}
		st := conformanceState()
		if ms := p.Decide(0, st); len(ms) == 0 {
			t.Errorf("%s decided nothing on a hot state under a healthy default env", name)
		}
	}
}

func TestEpochAdaptiveSteersHi(t *testing.T) {
	env := testEnv()
	fb := PhaseFeedback{}
	env.Feedback = func() PhaseFeedback { return fb }
	// migration_limit 0 disables the inner §IV-C candidate-ratio
	// adjustment and the wide [hi_min, hi_max] band keeps the clamp out
	// of the way, so the epoch controller is the only HI mutation.
	p, err := NewPolicy("epoch-adaptive", Params{
		"hi_start": 64, "hi_min": 8, "hi_max": 1 << 20, "migration_limit": 0,
	}, env)
	if err != nil {
		t.Fatal(err)
	}
	ea := p.(*EpochAdaptive)
	hi0, _ := ea.Thresholds()

	fb = PhaseFeedback{Accesses: 1000, RemoteFrac: 0.9} // placement lagging
	ea.Decide(0, conformanceState())
	hiDown, _ := ea.Thresholds()
	if hiDown >= hi0 {
		t.Fatalf("high remote fraction should lower HI: %d -> %d", hi0, hiDown)
	}

	fb = PhaseFeedback{Accesses: 1000, RemoteFrac: 0.0} // converged
	ea.Decide(1, conformanceState())
	hiUp, _ := ea.Thresholds()
	if hiUp <= hiDown {
		t.Fatalf("low remote fraction should raise HI: %d -> %d", hiDown, hiUp)
	}
}

func TestBandwidthAwareSuspendsPoolPlacement(t *testing.T) {
	env := testEnv()
	health := LinkHealth{}
	env.Link = func(int) LinkHealth { return health }
	p, err := NewPolicy("bandwidth-aware", Params{"hi_start": 64}, env)
	if err != nil {
		t.Fatal(err)
	}

	// Healthy link: the hot widely-shared region goes to the pool.
	ms := p.Decide(0, conformanceState())
	toPool := 0
	for _, m := range ms {
		if m.To == poolNode {
			toPool++
		}
	}
	if toPool == 0 {
		t.Fatal("healthy link: expected pool placements")
	}
	if got := p.Stats().LinkBackoffPhases; got != 0 {
		t.Fatalf("healthy link counted %d backoff phases", got)
	}

	// Saturated link (severity >= backoff_x 2): pool placement suspends.
	health = LinkHealth{LatencyX: 3}
	for _, m := range p.Decide(0, conformanceState()) {
		if m.To == poolNode {
			t.Fatalf("saturated link still placed page %d in the pool", m.Page)
		}
	}
	if got := p.Stats().LinkBackoffPhases; got != 1 {
		t.Fatalf("LinkBackoffPhases = %d, want 1", got)
	}

	// A dead pool suspends placement regardless of severity.
	health = LinkHealth{PoolDead: true}
	for _, m := range p.Decide(0, conformanceState()) {
		if m.To == poolNode {
			t.Fatal("dead pool still received placements")
		}
	}
}

func TestOraclePostPlacement(t *testing.T) {
	env := testEnv()
	p, err := NewPolicy("oracle", nil, env)
	if err != nil {
		t.Fatal(err)
	}
	if ms := p.Decide(0, conformanceState()); len(ms) != 0 {
		t.Fatal("oracle must not migrate dynamically")
	}

	totals := NewPageCounts(testPages, 16)
	totals.Record(3, 0) // page 0: socket 3 only
	for s := 0; s < 16; s++ {
		for i := 0; i < 10; i++ {
			totals.Record(s, 1) // page 1: hot, all sockets share it
		}
	}
	placement := p.(PostPlacer).PostPlace(totals)
	if placement[0] != 3 {
		t.Fatalf("page 0 placed at %v, want its only accessor 3", placement[0])
	}
	if placement[1] != poolNode {
		t.Fatalf("hot widely-shared page placed at %v, want pool", placement[1])
	}
}

func TestReplicationPolicyFiltersPoolMoves(t *testing.T) {
	p, err := NewPolicy("replication",
		Params{"hi_start": 64, "hot_accesses": 10}, testEnv())
	if err != nil {
		t.Fatal(err)
	}
	st := conformanceState() // region 2: hot, read-only, shared by all sockets
	ms := p.Decide(0, st)
	rp := p.(*ReplicationPolicy)
	set := rp.ReplicatedSet()
	if set == nil {
		t.Fatal("no pages replicated")
	}
	first, _ := st.Tracker.PageRange(2)
	if !set[first] {
		t.Fatal("hot read-mostly widely-shared page not replicated")
	}
	// Replicated pages must not also be migrated into the pool — every
	// socket already has a local copy, pooling them wastes capacity.
	for _, m := range ms {
		if m.To == poolNode && set[m.Page] {
			t.Fatalf("replicated page %d migrated to the pool", m.Page)
		}
	}
	for pg, r := range set {
		if r && st.PageHome[pg] == poolNode {
			t.Fatalf("replicated page %d left homed in the pool", pg)
		}
	}
	if !rp.ReplicationModel().Enable {
		t.Fatal("replication model must be enabled")
	}

	// Written pages stay out of the replica set.
	st2 := conformanceState()
	st2.Counts.AddWrites(uint32(first), 50)
	p2, _ := NewPolicy("replication", Params{"hi_start": 64, "hot_accesses": 10}, testEnv())
	p2.Decide(0, st2)
	if s2 := p2.(*ReplicationPolicy).ReplicatedSet(); s2 != nil && s2[first] {
		t.Fatal("write-heavy page was replicated")
	}
}

func TestComputeFeedback(t *testing.T) {
	counts := NewPageCounts(4, 16)
	home := make([]topology.NodeID, 4)
	home[0] = 0        // local accesses
	home[1] = 1        // remote accesses (accessor is socket 0)
	home[2] = poolNode // pooled accesses
	home[3] = poolNode // untouched pool page: residency only
	for i := 0; i < 10; i++ {
		counts.Record(0, 0)
	}
	for i := 0; i < 5; i++ {
		counts.Record(0, 1)
	}
	for i := 0; i < 7; i++ {
		counts.Record(2, 2)
	}
	fb := ComputeFeedback(4, counts, home, true, poolNode)
	if fb.Phase != 4 || fb.Accesses != 22 {
		t.Fatalf("fb = %+v", fb)
	}
	if want := 5.0 / 22; fb.RemoteFrac != want {
		t.Fatalf("RemoteFrac = %v, want %v", fb.RemoteFrac, want)
	}
	if want := 7.0 / 22; fb.PoolFrac != want {
		t.Fatalf("PoolFrac = %v, want %v", fb.PoolFrac, want)
	}
	if fb.PoolResidentPages != 2 {
		t.Fatalf("PoolResidentPages = %d, want 2", fb.PoolResidentPages)
	}
}

func TestLinkHealthSeverity(t *testing.T) {
	cases := []struct {
		h    LinkHealth
		want float64
	}{
		{LinkHealth{}, 1},
		{LinkHealth{LatencyX: 3}, 3},
		{LinkHealth{BandwidthDiv: 4}, 4},
		{LinkHealth{DownFrac: 0.5}, 2},
		{LinkHealth{LatencyX: 2, BandwidthDiv: 1.5}, 2},
	}
	for _, c := range cases {
		if got := c.h.Severity(); got != c.want {
			t.Errorf("Severity(%+v) = %v, want %v", c.h, got, c.want)
		}
	}
}
