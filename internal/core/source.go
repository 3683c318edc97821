package core

import "starnuma/internal/workload"

// AccessSource produces deterministic per-core LLC-miss streams for the
// pipeline. workload.Generator is the synthetic implementation;
// trace.Source replays step-A trace files (§IV-A1) through the same
// steps B and C.
//
// A source has one stream contract: the recorded flat arrays of one
// phase (workload.PhaseStream). Step B ingests them round-robin across
// cores; each step-C window reads them through per-core cursors. Both
// steps read at the phase's full instruction budget (SimConfig
// PhaseInstr), so every consumer of a phase sees the same arrays.
type AccessSource interface {
	// PhaseStream returns every core's misses for phase, each core's
	// run ending with the first access whose cumulative gap reaches
	// budget instructions. Sources must be deterministic: identical
	// (phase, budget) yields identical streams, since steps B and C
	// replay the same phases independently. The stream is read-only;
	// its Sig, when non-empty, lets step B memoize the phase's ingest.
	PhaseStream(phase int, budget uint64) *workload.PhaseStream
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
