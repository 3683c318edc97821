package workload

import (
	"fmt"
	"sync"

	"starnuma/internal/lru"
)

// This file implements the phase-stream cache and the generator pool —
// the two allocation-side levers behind fast step-C windows.
//
// Stream cache: a core's miss stream for one phase is a pure function
// of (spec, system shape, phase) — see the determinism contract on
// Generator. Step B replays every phase once and step C replays each
// phase once per timing window, so without caching the same exponential
// draws, class searches and page picks are recomputed dozens of times.
// PhaseStream (or SetPhaseBudget+ResetPhase) records the stream once,
// at the consumer's per-core instruction budget, into a compact
// struct-of-arrays buffer, and every later replay is pure array reads.
//
// Generator pool: runner workers previously built a fresh Generator per
// window, re-deriving page→class and page→sharer assignments each time.
// AcquireGenerator/ReleaseGenerator recycle generators per (spec,
// shape), and ResetPhase already rebuilds any phase-dependent drift
// state, so a pooled generator is indistinguishable from a fresh one.

// PhaseStream is one phase's recorded miss stream for every core, in
// struct-of-arrays layout: core c's accesses live at indices
// [Off[c], Off[c+1]) of the two parallel per-access arrays, and each
// core's run ends with the first access whose cumulative Gap reaches
// the recording budget. It is the one form in which steps B and C read
// accesses (core.AccessSource).
//
// Each access is packed into 6 bytes:
//
//	GapM1[i] = Gap - 1                              Gap in [1, MaxGap]
//	Words[i] = Page<<WordPageShift | Block<<1 | W   Page < MaxFootprintPages, Block < BlocksPerPage
//
// where W is WordWrite for a write and 0 otherwise. At unpacks one
// access; step B reads Words directly (the page is
// Words[i]>>WordPageShift, a write has Words[i]&WordWrite set).
//
// Streams are shared — the stream cache hands one PhaseStream to every
// consumer of the same (spec, shape, budget, phase) — so they are
// read-only once built.
type PhaseStream struct {
	// Sig names the stream's content: equal non-empty signatures mean
	// byte-identical streams, which is what step B's ingest memo keys
	// on. Empty means the source vouches for no identity, and the memo
	// is skipped.
	Sig   string
	Off   []int32
	GapM1 []uint16
	Words []uint32
}

// The layout of a PhaseStream word: the page number from bit
// WordPageShift up, then 6 block bits, then the write bit, WordWrite.
const (
	WordPageShift = 7
	WordWrite     = 1
)

// At returns the access at flat index i.
func (s *PhaseStream) At(i int32) Access { return unpack(s.GapM1[i], s.Words[i]) }

// pack is the PhaseStream encoding of one access.
func pack(gap, page uint32, block uint16, write bool) (uint16, uint32) {
	w := page<<WordPageShift | uint32(block)<<1
	if write {
		w |= WordWrite
	}
	return uint16(gap - 1), w
}

// unpack decodes one packed access.
func unpack(gapM1 uint16, w uint32) Access {
	return Access{Gap: uint32(gapM1) + 1, Page: w >> WordPageShift,
		Block: uint16(w>>1) & (BlocksPerPage - 1), Write: w&WordWrite != 0}
}

// bytes is the stream's resident size: the arrays' capacities, which
// is what the stream cache holds, not their lengths.
func (s *PhaseStream) bytes() int64 {
	return int64(cap(s.Off))*4 + int64(cap(s.GapM1))*2 + int64(cap(s.Words))*4
}

// RecordStream builds a phase stream by drawing each core's accesses
// from next, core by core, until the core's cumulative gap reaches
// budget. The result has an empty Sig. Every access must be packable
// (see PhaseStream); sources reject unpackable values where they enter,
// so one reaching here is a producer bug and panics.
func RecordStream(cores int, budget uint64, next func(core int) Access) *PhaseStream {
	r := newRecorder(cores)
	for core := 0; core < cores; core++ {
		r.startCore(core)
		for cum := uint64(0); cum < budget; {
			a := next(core)
			if a.Gap-1 >= MaxGap || a.Page >= MaxFootprintPages || a.Block >= BlocksPerPage {
				unpackable(core, a)
			}
			cum += uint64(a.Gap)
			gapM1, words := r.room()
			gapM1[0], words[0] = pack(a.Gap, a.Page, a.Block, a.Write)
			r.n++
		}
		r.endCore(core)
	}
	return r.finish()
}

// recorder builds a PhaseStream core by core: RecordStream and the
// generator's draw kernel both write through it. While recording, both
// arrays are resliced to their capacity and n counts the accesses
// written.
type recorder struct {
	s     *PhaseStream
	gapM1 []uint16
	words []uint32
	n     int
}

func newRecorder(cores int) recorder {
	return recorder{s: &PhaseStream{Off: make([]int32, cores+1)}}
}

// startCore opens core's run at the current end of the stream.
func (r *recorder) startCore(core int) { r.s.Off[core] = int32(r.n) }

// room returns the free tails of the two arrays, of equal length and
// at least one long. An array that is full grows exactly as appending
// one access to it would.
func (r *recorder) room() ([]uint16, []uint32) {
	if r.n == len(r.gapM1) {
		r.gapM1 = growFull(r.gapM1)
	}
	if r.n == len(r.words) {
		r.words = growFull(r.words)
	}
	end := min(len(r.gapM1), len(r.words))
	return r.gapM1[r.n:end], r.words[r.n:end]
}

// growFull grows a full slice as appending one element would, and
// returns it resliced to its new capacity.
func growFull[T uint16 | uint32](s []T) []T {
	s = append(s, 0)
	return s[:cap(s)]
}

// endCore closes core's run. After core 0 it pre-grows the arrays:
// cores draw from the same mixture, so core 0's access count predicts
// the total well, and pre-growing avoids repeated multi-MB reallocation
// copies as the remaining cores record.
func (r *recorder) endCore(core int) {
	cores := len(r.s.Off) - 1
	if core != 0 || cores < 2 {
		return
	}
	want := r.n * cores * 9 / 8
	gapM1, words := make([]uint16, want), make([]uint32, want)
	copy(gapM1, r.gapM1[:r.n])
	copy(words, r.words[:r.n])
	r.gapM1, r.words = gapM1, words
}

// finish closes the stream and returns it.
func (r *recorder) finish() *PhaseStream {
	r.s.Off[len(r.s.Off)-1] = int32(r.n)
	r.s.GapM1, r.s.Words = r.gapM1[:r.n], r.words[:r.n]
	return r.s
}

//starnuma:coldpath only on a producer bug: sources validate what they record
func unpackable(core int, a Access) {
	panic(fmt.Sprintf("workload: core %d access %+v does not fit a phase stream", core, a))
}

// streamKey identifies one cached stream. The sig string folds in the
// full Spec (seed, classes, drift), the system shape, and the recording
// budget; phase is kept separate because every phase of one workload
// shares the sig.
type streamKey struct {
	sig   string
	phase int
}

// streamCacheCap bounds cached stream bytes. It must hold the whole
// suite's working set — every (workload, shape, phase) the process
// touches, tens of MB each — because an evicted stream is re-recorded
// from the RNGs at full generation cost: an undersized cap turns the
// cache into a treadmill where each experiment evicts the streams the
// next one needs. Least-recently-used entries are dropped only past
// this cap, which is sized for full-scale sweeps, not just the quick
// suite.
const streamCacheCap = 6 << 30

var streamCache = lru.New[streamKey](streamCacheCap, (*PhaseStream).bytes)

// StreamCache returns the counters of the process-wide phase-stream
// cache; ResidentBytes is the recorded streams' summed capacity.
func StreamCache() lru.Stats { return streamCache.Stats() }

// streamSig derives the cache signature for a generator+budget. Spec is
// a plain value type (its only reference field is the Classes slice of
// scalar structs), so the %+v rendering is a faithful identity.
func streamSig(spec Spec, sockets, coresPerSocket int, budget uint64) string {
	return fmt.Sprintf("%+v|%d|%d|%d", spec, sockets, coresPerSocket, budget)
}

// SetPhaseBudget declares that every core will draw at most `budget`
// instructions worth of accesses per phase (each Access consumes Gap
// instructions; consumers stop at or before the first access that
// reaches the budget). A non-zero budget makes the next ResetPhase
// record or reuse a cached stream and switches Next to pure replay.
// Zero disables recording (the default, and the step-A analysis mode).
//
// The budget must cover the consumer's real consumption: replaying past
// the recorded stream panics rather than silently decorrelating.
func (g *Generator) SetPhaseBudget(budget uint64) {
	if budget == g.budget {
		return
	}
	g.budget = budget
	g.sig = ""
	if budget > 0 {
		g.sig = streamSig(g.spec, g.sockets, g.coresPerSocket, budget)
	}
	g.stream = nil
}

// PhaseStream returns phase's recorded stream at the given per-core
// instruction budget, from the stream cache under the same key
// SetPhaseBudget+ResetPhase use — recording it on a miss — and leaves
// the generator in replay mode at the start of phase.
func (g *Generator) PhaseStream(phase int, budget uint64) *PhaseStream {
	g.SetPhaseBudget(budget)
	g.ResetPhase(phase)
	return g.stream
}

// loadStream points the generator at the cached stream for phase,
// recording it on a cache miss, and rewinds every core's cursor.
func (g *Generator) loadStream(phase int) {
	key := streamKey{sig: g.sig, phase: phase}
	s, ok := streamCache.Get(key)
	if !ok {
		// Recording consumes the per-core RNG streams, which is safe
		// because replay mode never touches them again this phase.
		s = g.record(g.budget)
		s.Sig = g.sig
		streamCache.Put(key, s)
	}
	g.stream = s
	if g.cursor == nil {
		g.cursor = make([]int32, len(g.rngs))
	}
	copy(g.cursor, s.Off[:len(g.rngs)])
}

// ReplayArrays exposes the packed arrays of the stream bound by the
// last ResetPhase: core c's accesses are words[off[c]:off[c+1]], with
// gapM1 parallel to words, in the PhaseStream layout. It returns
// ok=false unless a stream is bound and was recorded at exactly the
// requested budget. Callers must treat the arrays as read-only.
func (g *Generator) ReplayArrays(budget uint64) (off []int32, words []uint32, gapM1 []uint16, ok bool) {
	s := g.stream
	if s == nil || g.budget != budget {
		return nil, nil, nil, false
	}
	return s.Off, s.Words, s.GapM1, true
}

//starnuma:coldpath only on replay overrun, which is a consumer bug
func streamOverrun(core int) {
	panic(fmt.Sprintf("workload: core %d replayed past its recorded phase stream (budget too small)", core))
}

// generatorPools recycles Generators per (spec, shape) signature so
// runner workers stop rebuilding page/sharer assignments every window.
var generatorPools sync.Map // string -> *sync.Pool

// AcquireGenerator returns a pooled Generator for spec on the given
// shape, building one only when the pool is empty. Callers must
// ResetPhase before drawing (all consumers already do) and should hand
// the generator back with ReleaseGenerator when the window completes.
func AcquireGenerator(spec Spec, sockets, coresPerSocket int) (*Generator, error) {
	sig := streamSig(spec, sockets, coresPerSocket, 0)
	if p, ok := generatorPools.Load(sig); ok {
		if g, _ := p.(*sync.Pool).Get().(*Generator); g != nil {
			return g, nil
		}
	}
	return NewGenerator(spec, sockets, coresPerSocket)
}

// ReleaseGenerator returns g to its shape pool for reuse. The generator
// must not be used after release.
func ReleaseGenerator(g *Generator) {
	if g == nil {
		return
	}
	sig := streamSig(g.spec, g.sockets, g.coresPerSocket, 0)
	p, _ := generatorPools.LoadOrStore(sig, &sync.Pool{})
	p.(*sync.Pool).Put(g)
}
