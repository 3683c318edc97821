package core

import (
	"crypto/sha256"
	"encoding/json"
	"slices"
	"unsafe"

	"starnuma/internal/lru"
	"starnuma/internal/metrics"
)

// Step-C window memoization.
//
// A timing window is a pure function of its inputs: the system, the
// plan's effective methodology config, the phase stream, and the
// checkpoint's page map and migration list plus the replica set. Sweeps
// nevertheless meet byte-identical windows again and again: policies
// that make the same placement decisions produce the same checkpoints,
// and every policy starts from the same phase-0 placement. The memo
// keys each window by a digest of those inputs and recalls its stats
// instead of re-simulating them.
//
// Two kinds of window bypass it:
//   - traced windows, because Result.MergeWindow shifts the window's
//     event buffer in place;
//   - windows over a stream without a signature (a trace-file replay),
//     which vouches for no identity, as in the ingest memo.

// windowKey is the SHA-256 digest of one window's inputs.
type windowKey [sha256.Size]byte

// windowKeyOf digests one window's inputs: their JSON encoding, the one
// the result cache keys on, so every field is in the key by
// construction and nil and empty slices stay distinct. The policy is
// the exception: step C reads only whether it charges tracker traffic,
// so two policies that agree on that and produced the same checkpoint
// share a key. ok is false when the window must not be memoized.
//
//starnuma:coldpath once per window, before the simulation it may skip
func windowKeyOf(sys SystemConfig, cfg SimConfig, sig string, chk Checkpoint,
	replicated []bool) (key windowKey, ok bool) {
	if cfg.Trace || sig == "" {
		return key, false
	}
	chargesTracker := policyChargesTracker(cfg)
	cfg.Policy = PolicySpec{}
	d := sha256.New()
	err := json.NewEncoder(d).Encode(struct {
		Sys            SystemConfig
		Cfg            SimConfig
		ChargesTracker bool
		Sig            string
		Chk            Checkpoint
		Replicated     []bool
	}{sys, cfg, chargesTracker, sig, chk, replicated})
	if err != nil {
		return key, false
	}
	d.Sum(key[:0])
	return key, true
}

// clone returns a copy of w that shares no mutable state with it, so a
// recalled window and the stored one never alias. Traced windows are
// never memoized, so trc is not copied.
func (w windowStats) clone() windowStats {
	c := w
	c.amat = w.amat.Clone()
	c.ipcs = slices.Clone(w.ipcs)
	c.met = w.met.Clone()
	if w.prof != nil {
		p := *w.prof
		p.Cells = slices.Clone(p.Cells)
		c.prof = &p
	}
	return c
}

// bytes estimates the heap held by a memoized copy of w.
func (w windowStats) bytes() int64 {
	n := int64(unsafe.Sizeof(w)) + int64(unsafe.Sizeof(*w.amat)) +
		int64(len(w.ipcs))*8 + snapshotBytes(w.met)
	if w.prof != nil {
		n += int64(unsafe.Sizeof(*w.prof)) + int64(len(w.prof.Cells))*8
	}
	return n
}

// snapshotBytes estimates a metrics snapshot's heap: a flat charge per
// map entry plus its buckets or points.
func snapshotBytes(s *metrics.Snapshot) int64 {
	if s == nil {
		return 0
	}
	const entry = 64
	n := int64(len(s.Counters)+len(s.Gauges)) * entry
	for _, h := range s.Histograms {
		n += entry + int64(len(h.Buckets))*int64(unsafe.Sizeof(metrics.Bucket{}))
	}
	for _, pts := range s.Series {
		n += entry + int64(len(pts))*int64(unsafe.Sizeof(metrics.Point{}))
	}
	return n
}

// windowMemoCap bounds memoized window bytes. An entry without
// metrics is about 1 KB, mostly per-core IPC samples, so the cap holds
// tens of thousands of windows, far more than one suite simulates;
// least-recently-used entries are dropped past it.
const windowMemoCap = 64 << 20

var windowMemo = lru.New[windowKey](windowMemoCap, windowStats.bytes)

// WindowMemo returns the counters of the process-wide step-C window
// memo. Hits and Misses count lookups by memoizable windows; traced
// windows and unsigned streams bypass the memo and count in neither.
func WindowMemo() lru.Stats { return windowMemo.Stats() }

// ResetWindowMemo drops every memoized window; the counters keep
// counting. Determinism tests call it so that each configuration they
// compare simulates its windows instead of recalling them.
func ResetWindowMemo() { windowMemo.Reset() }

// recallWindow returns a private copy of the stats memoized under key.
// Entries are immutable once stored, so copying outside the memo's
// lock is safe even if the entry is evicted meanwhile.
//
//starnuma:coldpath once per memoizable window
func recallWindow(key windowKey) (windowStats, bool) {
	w, ok := windowMemo.Get(key)
	if !ok {
		return windowStats{}, false
	}
	return w.clone(), true
}

// storeWindow memoizes a private copy of w under key.
//
//starnuma:coldpath once per simulated memoizable window
func storeWindow(key windowKey, w windowStats) {
	windowMemo.Put(key, w.clone())
}
