package core

import (
	"reflect"
	"testing"

	"starnuma/internal/topology"
	"starnuma/internal/tracker"
	"starnuma/internal/workload"
)

// plainSource is the reference source for the differential tests
// below: it builds each phase's arrays from draw-mode Generator.Next,
// bypassing the stream cache, and leaves the signature empty, so
// TraceSimulate never consults the ingest memo.
type plainSource struct{ *workload.Generator }

func (p plainSource) PhaseStream(phase int, budget uint64) *workload.PhaseStream {
	p.SetPhaseBudget(0)
	p.ResetPhase(phase)
	return workload.RecordStream(p.NumCores(), budget, p.Next)
}

func (plainSource) StreamSig(uint64) string          { return "" }
func (plainSource) ReleasePhase(int, uint64, uint64) {}

// traceOutputs projects the fields of a TraceResult that step C and the
// reports consume, for deep comparison.
func traceOutputs(tr *TraceResult) map[string]any {
	return map[string]any{
		"checkpoints": tr.Checkpoints,
		"finalHome":   tr.FinalHome,
		"totals":      tr.Totals,
		"migrStats":   tr.MigrStats,
		"flushes":     tr.TrackerFlushes,
		"drained":     tr.DrainedPages,
		"replicated":  tr.Replicated,
	}
}

// TestIngestMemoizationIsExact runs step B for several policy variants
// over the same workload twice — once through the bare scalar path
// (plainSource: no stream cache, no memo) and once through the full
// fast path, with the ingest memo warmed by the preceding variants —
// and requires byte-identical results. This is the cross-variant
// scenario the memo exists for: the second and later fast-path runs
// restore phase ingests recorded under a different migration policy.
func TestIngestMemoizationIsExact(t *testing.T) {
	sys := StarNUMASystem()
	topo := topology.New(sys.Topology)
	newGen := func() *workload.Generator {
		g, err := workload.NewGenerator(tinySpec(t, "BFS"), topo.Sockets(), sys.CoresPerSocket)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	sampled := DefaultSoftwareTracking()
	sampled.Enable = true
	for _, tc := range []struct {
		name     string
		policy   PolicySpec
		sampling SoftwareTrackingConfig
	}{
		{name: "starnuma", policy: PolicyStarNUMA},
		{name: "oracle", policy: PolicyOracle},
		{name: "none", policy: PolicyNone},
		{name: "sampled", policy: PolicyStarNUMA, sampling: sampled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tinySim()
			cfg.Phases = 3
			cfg.Policy = tc.policy
			cfg.SoftwareTracking = tc.sampling

			want, err := TraceSimulate(sys, cfg, plainSource{newGen()})
			if err != nil {
				t.Fatal(err)
			}
			// Twice through the fast path: the first run may record the
			// memo entries, the second is guaranteed to restore them.
			for round := 0; round < 2; round++ {
				got, err := TraceSimulate(sys, cfg, newGen())
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(traceOutputs(got), traceOutputs(want)) {
					t.Fatalf("round %d: memoized trace result diverges from scalar reference", round)
				}
			}
		})
	}
}

// TestIngestMemoSharedAcrossTrackerShapes pins the memo's contract:
// the tracker is derived from each phase's counts, not memoized, so
// runs differing only in tracker design, region size or software
// sampling share one entry per stream phase. Every run must still match
// its own scalar reference, and the whole sequence must walk each phase
// once: the first run misses every phase and every later run hits.
func TestIngestMemoSharedAcrossTrackerShapes(t *testing.T) {
	sys := StarNUMASystem()
	topo := topology.New(sys.Topology)
	newGen := func() *workload.Generator {
		g, err := workload.NewGenerator(tinySpec(t, "Masstree"), topo.Sockets(), sys.CoresPerSocket)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	sampling := func(frac float64) SoftwareTrackingConfig {
		return SoftwareTrackingConfig{Enable: true, SampleFrac: frac, FaultPenaltyCycles: 3000}
	}
	cfgs := []SimConfig{
		func() SimConfig { c := tinySim(); c.RegionPages = 32; return c }(),
		func() SimConfig { c := tinySim(); c.Tracker = tracker.T0; return c }(),
		func() SimConfig { c := tinySim(); c.RegionPages = 64; return c }(),
		func() SimConfig { c := tinySim(); c.RegionPages = 128; return c }(),
		func() SimConfig { c := tinySim(); c.SoftwareTracking = sampling(0.05); return c }(),
		func() SimConfig { c := tinySim(); c.SoftwareTracking = sampling(1); return c }(),
	}
	ingestCache.Reset() // earlier tests may have walked this stream
	before := IngestMemo()
	for _, cfg := range cfgs {
		want, err := TraceSimulate(sys, cfg, plainSource{newGen()})
		if err != nil {
			t.Fatal(err)
		}
		got, err := TraceSimulate(sys, cfg, newGen())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(traceOutputs(got), traceOutputs(want)) {
			t.Fatalf("tracker %v/r%d, sampling %+v: memoized result diverges from scalar reference",
				cfg.Tracker, cfg.RegionPages, cfg.SoftwareTracking)
		}
	}
	after := IngestMemo()
	phases := int64(tinySim().Phases)
	if misses := after.Misses - before.Misses; misses != phases {
		t.Errorf("ingest memo misses = %d, want one per stream phase (%d)", misses, phases)
	}
	if hits := after.Hits - before.Hits; hits != int64(len(cfgs)-1)*phases {
		t.Errorf("ingest memo hits = %d, want %d", hits, int64(len(cfgs)-1)*phases)
	}
}

// After step B and every window of a quick plan, the stream cache holds
// only the windows' prefixes: step B swapped each full phase for its
// timed prefix once it was ingested. A second plan over the same
// streams restores every phase from the ingest memo, recalls every
// window, and records nothing.
func TestStreamCacheKeepsOnlyTimedPrefixes(t *testing.T) {
	sys := StarNUMASystem()
	cfg := QuickSim()
	spec := tinySpec(t, "BFS")
	spec.Seed ^= 0x5eed // streams no other test records
	run := func() {
		p, newGen := planFor(t, sys, cfg, spec)
		for i := 0; i < p.NumWindows(); i++ {
			p.RunWindow(i, newGen())
		}
	}
	before := workload.StreamCache()
	run()
	after := workload.StreamCache()

	gen, err := workload.NewGenerator(spec, topology.New(sys.Topology).Sockets(), sys.CoresPerSocket)
	if err != nil {
		t.Fatal(err)
	}
	var prefixBytes int64
	for phase := 0; phase < cfg.Phases; phase++ {
		s := gen.PhaseStream(phase, cfg.TimedInstr)
		prefixBytes += int64(cap(s.Off))*4 + int64(cap(s.GapM1))*2 + int64(cap(s.Words))*4
	}
	if got := workload.StreamCache(); got.Misses != after.Misses {
		t.Fatalf("%d timed prefixes were not resident after the plan", got.Misses-after.Misses)
	}
	if held := after.ResidentBytes - before.ResidentBytes; held != prefixBytes {
		t.Errorf("the plan left %d stream bytes resident, want its prefixes' %d", held, prefixBytes)
	}

	memo := IngestMemo()
	run()
	if got := workload.StreamCache(); got.Misses != after.Misses {
		t.Errorf("a plan whose ingests all hit the memo recorded %d streams", got.Misses-after.Misses)
	}
	if got := IngestMemo(); got.Hits-memo.Hits != int64(cfg.Phases) || got.Misses != memo.Misses {
		t.Errorf("second plan: %d ingest hits, %d misses; want %d, 0",
			got.Hits-memo.Hits, got.Misses-memo.Misses, cfg.Phases)
	}

	// No phase-budget stream stayed resident: each must be recorded
	// anew, after which it is released again.
	for phase := 0; phase < cfg.Phases; phase++ {
		misses := workload.StreamCache().Misses
		gen.PhaseStream(phase, cfg.PhaseInstr)
		if workload.StreamCache().Misses != misses+1 {
			t.Errorf("phase %d's full stream stayed resident", phase)
		}
		gen.ReleasePhase(phase, cfg.PhaseInstr, cfg.TimedInstr)
	}
}
