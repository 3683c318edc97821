package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"

	"starnuma/internal/core"
)

// The correctness check hashes a fixed projection of each run's output
// rather than its whole JSON encoding, so adding a field to core.Result
// does not invalidate the goldens. Floats are hashed by their bit
// patterns: a simulator-speed change must leave every one of them
// bit-identical.

// resultDigest hashes the simulated statistics of one pipeline run.
func resultDigest(r *core.Result) string {
	h := sha256.New()
	fl := func(v float64) { fmt.Fprintf(h, "%x;", math.Float64bits(v)) }
	fl(r.IPC)
	fl(r.MPKI)
	fmt.Fprintf(h, "amat %d %d %d %v;", r.AMAT.Count(), r.AMAT.SumLatency(), r.AMAT.Unloaded(), r.AMAT.Breakdown())
	fmt.Fprintf(h, "work %d %d %d;", r.Instructions, r.Misses, r.SimulatedTime)
	fmt.Fprintf(h, "dir %+v; tlb %+v; migr %+v;", r.Dir, r.TLB, r.MigrStats)
	fmt.Fprintf(h, "pool %d; faults %d %d %d;", r.PoolPages, r.FaultDegradedSends, r.FaultFlapRetries, r.FaultDrainedPages)
	return sum(h)
}

// planDigest hashes step B's output for the trace-only workload: every
// checkpoint's placement and migration list, and the policy's decision
// counts.
func planDigest(p *core.Plan) string {
	h := sha256.New()
	for i := 0; i < p.NumWindows(); i++ {
		c := p.Checkpoint(i)
		fmt.Fprintf(h, "chk %d %v %v;", c.Phase, c.PageHome, c.Migrations)
	}
	fmt.Fprintf(h, "migr %+v;", p.Trace().MigrStats)
	return sum(h)
}

func sum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil))[:16] }
