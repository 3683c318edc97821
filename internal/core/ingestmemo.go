package core

import (
	"starnuma/internal/lru"
	"starnuma/internal/migrate"
	"starnuma/internal/topology"
)

// Step-B ingest memoization.
//
// Experiment sweeps run TraceSimulate once per variant — per migration
// policy, fault plan, tracker design, region size, sampling fraction or
// system knob — over the same recorded phase streams. The ingest
// products of one phase are variant-independent:
//
//   - The per-phase PageCounts are reset before every ingest, so their
//     end-of-phase contents are a pure function of the stream and the
//     core→socket map, both folded into the stream signature.
//   - First-touch assignments only fire on Unassigned pages, and no
//     policy action can un-assign a page (migrations and drains move
//     pages the tracker saw, which are by definition already touched),
//     so the set of pages first-touched in phase k — and the socket each
//     lands on — is the same for every variant.
//
// The tracker is not an ingest product: TraceSimulate derives it from
// the phase's counts after every ingest (PageCounts.FoldInto), so the
// key carries no tracker shape and software-sampled runs share entries
// with hardware-tracked ones. The memo captures, per (stream, phase),
// the phase's counts plus the first-touch (page, home) list, and every
// run applies them by array copy: the run that walks the phase's ~10^6
// recorded accesses (walkPhase) and every run that finds the entry
// resident or waits for that walk alike.

// ingestKey identifies one memoized phase ingest. sig is the source's
// signature for its streams at the phase budget (spec, system shape,
// per-core budget — see AccessSource.StreamSig).
type ingestKey struct {
	sig   string
	phase int
}

type ingestEntry struct {
	pc *migrate.PageCounts
	// The phase's first-touch assignments, in page order. Each page
	// appears once, so restoring them in any order gives the same map.
	firstPages []uint32
	firstHomes []topology.NodeID
}

func (e *ingestEntry) bytes() int64 {
	return e.pc.Bytes() + int64(len(e.firstPages))*4 + int64(len(e.firstHomes))*8
}

// ingestCacheCap bounds memoized ingest bytes. Entries are a few MB
// each (dominated by the PageCounts snapshot, pages × sockets counters)
// and one is kept per (stream, phase), so the cap comfortably holds a
// full sweep's working set; least-recently-used entries are dropped
// past it.
const ingestCacheCap = 2 << 30

var ingestCache = lru.New[ingestKey](ingestCacheCap, (*ingestEntry).bytes)

// IngestMemo returns the counters of the process-wide step-B ingest
// memo. Misses count the phases of signed streams walked, Hits those
// served without a walk; unsigned streams (trace-file replays) bypass
// the memo and count in neither.
func IngestMemo() lru.Stats { return ingestCache.Stats() }
