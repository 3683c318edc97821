package core

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"starnuma/internal/migrate"
	"starnuma/internal/topology"
	"starnuma/internal/trace"
	"starnuma/internal/workload"
)

// refIngest is an independent reference for ingestPhase's walk: a
// test-only copy of the interleaved walk step B made before the
// per-core loop existed — cores taken round-robin, one access each per
// round — verbatim but for the memo, which it leaves alone, and the
// write count, which it adds one store at a time. It returns the
// phase's first touches as a page→home map.
func refIngest(gen AccessSource, phase int, budget uint64,
	home []topology.NodeID, counts *migrate.PageCounts) map[uint32]topology.NodeID {
	s := gen.PhaseStream(phase, budget)
	off, words := s.Off, s.Words
	cores := gen.NumCores()
	socketOf := make([]int, cores)
	cur := make([]int32, cores)
	active := 0
	for c := 0; c < cores; c++ {
		socketOf[c] = gen.SocketOf(c)
		cur[c] = off[c]
		if cur[c] < off[c+1] {
			active++
		}
	}
	first := make(map[uint32]topology.NodeID)
	for active > 0 {
		for c := 0; c < cores; c++ {
			i := cur[c]
			if i >= off[c+1] {
				continue
			}
			cur[c] = i + 1
			if i+1 >= off[c+1] {
				active--
			}
			w := words[i]
			p := w >> workload.WordPageShift
			sock := socketOf[c]
			if home[p] == Unassigned {
				home[p] = topology.NodeID(sock) // first touch
				first[p] = topology.NodeID(sock)
			}
			counts.Record(sock, p)
			if w&workload.WordWrite != 0 {
				counts.AddWrites(p, 1)
			}
		}
	}
	return first
}

// checkIngestMatchesWalk ingests cfg.Phases phases of gen twice, once
// through ingestPhase with the memo empty and once through refIngest,
// carrying each side's placement from phase to phase, and requires
// equal homes, equal counts and writes, and — for a signed source — a
// memo entry holding exactly the walk's first touches.
func checkIngestMatchesWalk(t *testing.T, name string, gen AccessSource, sockets int, cfg SimConfig) {
	t.Helper()
	ingestCache.Reset()
	pages := gen.NumPages()
	home := make([]topology.NodeID, pages)
	for p := range home {
		home[p] = Unassigned
	}
	refHome := slices.Clone(home)
	sig := gen.StreamSig(cfg.PhaseInstr)
	for phase := 0; phase < cfg.Phases; phase++ {
		counts := migrate.NewPageCounts(pages, sockets)
		refCounts := migrate.NewPageCounts(pages, sockets)
		// The reference reads the full stream before ingestPhase
		// releases it to its prefix.
		want := refIngest(gen, phase, cfg.PhaseInstr, refHome, refCounts)
		ingestPhase(gen, phase, cfg, home, counts)
		if !slices.Equal(home, refHome) {
			t.Fatalf("%s phase %d: homes differ from the round-robin walk", name, phase)
		}
		if !reflect.DeepEqual(counts, refCounts) {
			t.Fatalf("%s phase %d: counts or writes differ from the round-robin walk", name, phase)
		}
		if sig == "" {
			continue
		}
		e := ingestCache.Do(ingestKey{sig: sig, phase: phase}, func() *ingestEntry {
			t.Fatalf("%s phase %d: no ingest memo entry", name, phase)
			return nil
		})
		got := make(map[uint32]topology.NodeID, len(e.firstPages))
		for i, p := range e.firstPages {
			got[p] = e.firstHomes[i]
		}
		if len(got) != len(e.firstPages) || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s phase %d: memo entry's first touches differ from the round-robin walk", name, phase)
		}
		if !reflect.DeepEqual(e.pc, refCounts) {
			t.Fatalf("%s phase %d: memo entry's counts differ from the round-robin walk", name, phase)
		}
	}
}

// checkPlanMemoHits plans gen twice over an empty ingest memo: the
// first plan walks every phase, the second restores every phase from
// the memo, and both must produce identical checkpoints.
func checkPlanMemoHits(t *testing.T, name string, sys SystemConfig, cfg SimConfig, gen AccessSource) {
	t.Helper()
	ingestCache.Reset()
	var plans [2]*Plan
	phases := int64(cfg.Phases)
	for i, want := range [2][2]int64{{phases, 0}, {0, phases}} {
		before := IngestMemo()
		p, err := NewPlan(sys, cfg, gen)
		if err != nil {
			t.Fatal(err)
		}
		plans[i] = p
		after := IngestMemo()
		if misses, hits := after.Misses-before.Misses, after.Hits-before.Hits; misses != want[0] || hits != want[1] {
			t.Fatalf("%s: plan %d: %d memo misses and %d hits, want %d and %d", name, i, misses, hits, want[0], want[1])
		}
	}
	if !reflect.DeepEqual(plans[0].Trace().Checkpoints, plans[1].Trace().Checkpoints) {
		t.Fatalf("%s: checkpoints restored from the ingest memo differ from walked ones", name)
	}
}

// TestIngestMatchesRoundRobinWalk checks the per-core ingest against
// the interleaved walk it replaced, on every suite workload at 16 and
// (except under -short) 32 sockets, on a BFS whose sharer sets drift,
// and on a trace file whose cores wrap at unequal lengths.
func TestIngestMatchesRoundRobinWalk(t *testing.T) {
	cfg := tinySim()
	cfg.Phases = 4
	socketCounts := []int{16, 32}
	if testing.Short() {
		socketCounts = socketCounts[:1]
	}
	for _, sockets := range socketCounts {
		sys := StarNUMASystem()
		sys.Topology.Sockets = sockets
		for _, spec := range workload.Suite(0.05) {
			name := fmt.Sprintf("%s/%d", spec.Name, sockets)
			gen, err := workload.NewGenerator(spec, sockets, sys.CoresPerSocket)
			if err != nil {
				t.Fatal(err)
			}
			checkIngestMatchesWalk(t, name, gen, sockets, cfg)
			checkPlanMemoHits(t, name, sys, cfg, gen)
		}
	}

	t.Run("drift", func(t *testing.T) {
		sys := StarNUMASystem()
		spec := tinySpec(t, "BFS")
		spec.DriftFrac, spec.DriftPeriod = 0.5, 2
		gen, err := workload.NewGenerator(spec, 16, sys.CoresPerSocket)
		if err != nil {
			t.Fatal(err)
		}
		// Phases 0-3 span two drift periods.
		checkIngestMatchesWalk(t, "drifting BFS", gen, 16, cfg)
		checkPlanMemoHits(t, "drifting BFS", sys, cfg, gen)
	})

	t.Run("trace", func(t *testing.T) {
		sys := StarNUMASystem()
		cores := 16 * sys.CoresPerSocket
		const pages = 512
		dir := t.TempDir()
		var paths []string
		for file := 0; file < 2; file++ {
			paths = append(paths, writeWrappingTrace(t, dir, file, cores, pages))
		}
		src, err := trace.NewSource(tinySpec(t, "BFS"), 16, sys.CoresPerSocket, paths)
		if err != nil {
			t.Fatal(err)
		}
		// Four phases over two files: the phases wrap as well.
		checkIngestMatchesWalk(t, "trace", src, 16, cfg)
	})
}

// writeWrappingTrace writes one phase file in which core c has
// 3 + 7*(c%5) records, far fewer than a phase's budget needs, so every
// core wraps, at unequal lengths, and cores often first-touch a page in
// the same round.
func writeWrappingTrace(t *testing.T, dir string, phase, cores, pages int) string {
	t.Helper()
	path := filepath.Join(dir, fmt.Sprintf("phase%d.sntr", phase))
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w, err := trace.NewWriter(f, trace.Header{Workload: "wrap", Cores: cores, Pages: pages, Phase: phase})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(phase) + 1))
	for c := 0; c < cores; c++ {
		for i := 0; i < 3+7*(c%5); i++ {
			a := workload.Access{Gap: uint32(1 + rng.Intn(4000)), Page: uint32(rng.Intn(pages)),
				Block: uint16(rng.Intn(workload.BlocksPerPage)), Write: rng.Intn(3) == 0}
			if err := w.Write(trace.Record{Core: uint16(c), Access: a}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return path
}

// unsignedSource is a generator that vouches for no stream identity, so
// the ingest and window memos never recall its work.
type unsignedSource struct{ *workload.Generator }

func (unsignedSource) StreamSig(uint64) string          { return "" }
func (unsignedSource) ReleasePhase(int, uint64, uint64) {}

// BenchmarkIngestPhase ingests one suite phase, SSSP on 16 sockets of 4
// cores at the quick methodology's scale and phase budget, into an
// empty placement, bypassing the ingest memo.
func BenchmarkIngestPhase(b *testing.B) {
	spec, err := workload.ByName("SSSP", 0.125)
	if err != nil {
		b.Fatal(err)
	}
	sys := StarNUMASystem()
	gen, err := workload.NewGenerator(spec, sys.Topology.Sockets, sys.CoresPerSocket)
	if err != nil {
		b.Fatal(err)
	}
	cfg := QuickSim()
	src := unsignedSource{gen}
	s := src.PhaseStream(0, cfg.PhaseInstr)
	home := make([]topology.NodeID, gen.NumPages())
	counts := migrate.NewPageCounts(gen.NumPages(), sys.Topology.Sockets)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for p := range home {
			home[p] = Unassigned
		}
		b.StartTimer()
		ingestPhase(src, 0, cfg, home, counts)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(s.Words)), "ns/access")
}

// BenchmarkRunWindow simulates one step-C timing window, the first
// checkpoint of a quick-preset StarNUMA plan for SSSP on 16 sockets of
// 4 cores, bypassing the window memo.
func BenchmarkRunWindow(b *testing.B) {
	spec, err := workload.ByName("SSSP", 0.125)
	if err != nil {
		b.Fatal(err)
	}
	sys := StarNUMASystem()
	gen, err := workload.NewGenerator(spec, sys.Topology.Sockets, sys.CoresPerSocket)
	if err != nil {
		b.Fatal(err)
	}
	cfg := QuickSim()
	cfg.Policy = PolicyStarNUMA
	src := unsignedSource{gen}
	plan, err := NewPlan(sys, cfg, src)
	if err != nil {
		b.Fatal(err)
	}
	gen.PhaseStream(plan.Checkpoint(0).Phase, cfg.TimedInstr) // record the window's stream untimed
	b.ReportAllocs()
	b.ResetTimer()
	var misses uint64
	for i := 0; i < b.N; i++ {
		misses += plan.RunWindow(0, src).stats.Misses
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(misses), "ns/miss")
}
