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
// Generator — and a recording stops each core at the first access
// whose cumulative gap reaches the budget, so a recording at a smaller
// budget is, core by core, a prefix of one at a larger budget. Step B
// walks each phase once, at the phase budget (SimConfig.PhaseInstr);
// step C replays only each core's first TimedInstr instructions, once
// per timing window. PhaseStream (or SetPhaseBudget+ResetPhase) records
// a stream once, at the consumer's per-core instruction budget, into a
// compact struct-of-arrays buffer, and every later replay is pure array
// reads. A full-phase stream stays cached only until step B has
// ingested it: ReleasePhase then swaps it for its prefix at the timed
// budget (PhaseStream.Prefix), which is all the windows read.
// Generators record in parallel over cores into exactly sized arrays
// (Generator.record, draw.go). The cache is an lru.Memo, so callers
// that miss the same stream at once share one recording.
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

// Prefix returns the stream cut at a smaller budget: each core's run
// ends with its first access whose cumulative gap reaches budget, the
// rule a recording stops by, so for a source whose cores replay one
// sequence whatever the budget (every generator and trace file), it
// equals a recording at budget. The arrays are fresh and exactly
// sized. It panics if a core's run ends before reaching budget.
func (s *PhaseStream) Prefix(budget uint64) *PhaseStream {
	cores := len(s.Off) - 1
	ends := make([]int32, cores)
	n := 0
	for c := 0; c < cores; c++ {
		i := s.Off[c]
		for cum := uint64(0); cum < budget; i++ {
			if i == s.Off[c+1] {
				streamOverrun(c)
			}
			cum += uint64(s.GapM1[i]) + 1
		}
		ends[c] = i
		n += int(i - s.Off[c])
	}
	p := &PhaseStream{Off: make([]int32, cores+1),
		GapM1: make([]uint16, 0, n), Words: make([]uint32, 0, n)}
	for c := 0; c < cores; c++ {
		p.Off[c] = int32(len(p.GapM1))
		p.GapM1 = append(p.GapM1, s.GapM1[s.Off[c]:ends[c]]...)
		p.Words = append(p.Words, s.Words[s.Off[c]:ends[c]]...)
	}
	p.Off[cores] = int32(n)
	return p
}

// bytes is the stream's resident size: the arrays' capacities, which
// is what the stream cache holds, not their lengths.
func (s *PhaseStream) bytes() int64 {
	return int64(cap(s.Off))*4 + int64(cap(s.GapM1))*2 + int64(cap(s.Words))*4
}

// RecordStream builds a phase stream by drawing each core's accesses
// from next, core by core, until the core's cumulative gap reaches
// budget, appending to the arrays as it goes. Every access must be
// packable (see PhaseStream); sources reject unpackable values where
// they enter, so one reaching here is a producer bug and panics.
func RecordStream(cores int, budget uint64, next func(core int) Access) *PhaseStream {
	s := &PhaseStream{Off: make([]int32, cores+1)}
	for core := 0; core < cores; core++ {
		s.Off[core] = int32(len(s.Words))
		for cum := uint64(0); cum < budget; {
			a := next(core)
			if a.Gap-1 >= MaxGap || a.Page >= MaxFootprintPages || a.Block >= BlocksPerPage {
				unpackable(core, a)
			}
			cum += uint64(a.Gap)
			gapM1, w := pack(a.Gap, a.Page, a.Block, a.Write)
			s.GapM1 = append(s.GapM1, gapM1)
			s.Words = append(s.Words, w)
		}
	}
	s.Off[cores] = int32(len(s.Words))
	return s
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

// streamCacheCap bounds cached stream bytes. Once step B has ingested
// a phase the cache keeps only its timed prefix, a tenth of the phase
// at both presets, so the cap must hold the prefixes of every
// (workload, shape, phase) the process touches plus the few full phases
// recorded and not yet ingested: the quick suite ends holding about
// 140 MB. An evicted stream is re-recorded from the RNGs at full
// generation cost, so an undersized cap would turn the cache into a
// treadmill where each experiment evicts the streams the next one
// needs. Least-recently-used entries are dropped only past this cap,
// which leaves room for full-scale sweeps, and with the ingest and
// window memos' caps it sums to about 4 GiB.
const streamCacheCap = 2 << 30

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

// StreamSig implements core.AccessSource: it names phase streams at
// budget by the full Spec (seed, classes, drift), the system shape and
// the budget, so equal signatures mean byte-identical streams.
func (g *Generator) StreamSig(budget uint64) string {
	if budget == g.budget && g.sig != "" {
		return g.sig
	}
	return streamSig(g.spec, g.sockets, g.coresPerSocket, budget)
}

// ReleasePhase implements core.AccessSource. When the generator is
// bound to phase's stream at budget, as PhaseStream leaves it, and keep
// is below budget, the stream cache swaps that stream for its prefix at
// keep, cutting the prefix only if it is not resident yet, and the
// generator is left bound to the cached prefix, as PhaseStream(phase,
// keep) would leave it. Otherwise it does nothing.
func (g *Generator) ReleasePhase(phase int, budget, keep uint64) {
	if g.stream == nil || g.budget != budget || g.streamPhase != phase || keep >= budget {
		return
	}
	full, s := streamKey{sig: g.sig, phase: phase}, g.stream
	g.SetPhaseBudget(keep)
	g.bind(phase, streamCache.Do(streamKey{sig: g.sig, phase: phase},
		func() *PhaseStream { return s.Prefix(keep) }))
	streamCache.Delete(full)
}

// loadStream points the generator at the cached stream for phase,
// recording it on a cache miss; concurrent loads of one stream share
// one recording. Recording consumes the per-core RNG streams, which is
// safe because replay mode never touches them again this phase.
func (g *Generator) loadStream(phase int) {
	key := streamKey{sig: g.sig, phase: phase}
	g.bind(phase, streamCache.Do(key, func() *PhaseStream { return g.record(g.budget) }))
}

// bind makes s, phase's stream at the generator's budget, the stream
// Next replays, and rewinds every core's cursor.
func (g *Generator) bind(phase int, s *PhaseStream) {
	g.stream, g.streamPhase = s, phase
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
