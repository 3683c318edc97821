package core

import "starnuma/internal/workload"

// AccessSource produces deterministic per-core LLC-miss streams for the
// pipeline. workload.Generator is the synthetic implementation;
// trace.Source replays step-A trace files (§IV-A1) through the same
// steps B and C.
//
// A source has one stream contract: the recorded flat arrays of one
// phase (workload.PhaseStream). Step B ingests each phase once, at the
// phase's full instruction budget (SimConfig.PhaseInstr), one core's
// run after another; each step-C window reads only each core's first
// TimedInstr instructions, through per-core cursors over the phase's
// stream at that budget. A recording at the smaller budget is, core by
// core, a prefix of the one at the larger, so both steps see the same
// accesses.
type AccessSource interface {
	// PhaseStream returns every core's misses for phase, each core's
	// run ending with the first access whose cumulative gap reaches
	// budget instructions. Sources must be deterministic: identical
	// (phase, budget) yields identical streams, since steps B and C
	// replay the same phases independently. The stream is read-only.
	PhaseStream(phase int, budget uint64) *workload.PhaseStream
	// StreamSig names the content of the source's streams at budget:
	// equal non-empty signatures mean byte-identical streams, phase by
	// phase, which is what the ingest and window memos key on. Empty
	// means the source vouches for no identity, and both memos are
	// skipped. It reads no stream.
	StreamSig(budget uint64) string
	// ReleasePhase tells the source that phase's stream at budget,
	// just returned by PhaseStream, will be read again only through
	// its prefix at keep (PhaseStream.Prefix): a source that keeps
	// streams may keep that prefix and drop the rest.
	ReleasePhase(phase int, budget, keep uint64)
	// NumPages is the footprint size in 4KB pages.
	NumPages() int
	// NumCores is the total core count.
	NumCores() int
	// SocketOf maps a core index to its socket.
	SocketOf(core int) int
	// Spec carries the workload's timing parameters (zero-load IPC
	// derivation, MLP, MPKI).
	Spec() workload.Spec
}

// compile-time check: the synthetic generator is an AccessSource.
var _ AccessSource = (*workload.Generator)(nil)
