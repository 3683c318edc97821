package migrate

import (
	"fmt"
	"math/rand"
	"sort"

	"starnuma/internal/topology"
)

// PerfectBaseline is the paper's favoured baseline migration policy:
// per-page migration decisions from complete, zero-cost access knowledge
// (§IV-C). A page moves to the socket that accessed it most during the
// phase when that socket's count sufficiently exceeds the current home's
// count. There is no pool; vagabond pages simply have no good
// destination — the paper's central observation.
type PerfectBaseline struct {
	// MinAccesses filters noise: pages below it are not considered.
	MinAccesses uint32
	// Gain is the advantage the best socket must have over the current
	// home (best > Gain × home) before a move is worthwhile.
	Gain float64
	// MigrationLimit caps pages moved per phase; the migration cost
	// itself is still modelled by the timing layer.
	MigrationLimit int

	stats Stats
}

// NewPerfectBaseline returns the baseline policy with the defaults used
// throughout the evaluation. The gain margin is deliberately high: with
// per-page counts in the hundreds, a lower margin migrates on sampling
// noise, and noise migrations only cost the baseline (stalls, traffic,
// shootdowns) without improving placement — the paper explicitly favors
// the baseline, so it must not self-harm.
func NewPerfectBaseline(limit int) *PerfectBaseline {
	return &PerfectBaseline{MinAccesses: 16, Gain: 1.6, MigrationLimit: limit}
}

// Stats returns decision counters.
func (p *PerfectBaseline) Stats() Stats { return p.stats }

// Decide implements Policy.
func (p *PerfectBaseline) Decide(phase int, st *State) []Migration {
	if st.Counts == nil {
		panic("migrate: PerfectBaseline requires PageCounts")
	}
	var out []Migration
	for pg := uint32(0); int(pg) < len(st.PageHome); pg++ {
		if p.MigrationLimit > 0 && len(out) >= p.MigrationLimit {
			break
		}
		best, bestCount := st.Counts.Argmax(pg)
		if bestCount < p.MinAccesses {
			continue
		}
		home := st.PageHome[pg]
		if topology.NodeID(best) == home {
			continue
		}
		var homeCount uint32
		if int(home) < st.Sockets {
			homeCount = st.Counts.Count(pg, int(home))
		}
		if float64(bestCount) <= p.Gain*float64(homeCount) {
			continue
		}
		out = append(out, Migration{Page: pg, From: home, To: topology.NodeID(best)})
		st.PageHome[pg] = topology.NodeID(best)
		p.stats.PagesToSocket++
	}
	return out
}

// NoMigration is a null policy: placement stays wherever first touch
// put it.
type NoMigration struct{}

// Decide implements Policy.
func (NoMigration) Decide(int, *State) []Migration { return nil }

// Stats implements Policy.
func (NoMigration) Stats() Stats { return Stats{} }

// StaticOracleConfig controls oracular static placement (§V-B).
type StaticOracleConfig struct {
	Sockets int
	HasPool bool
	// PoolNode is the pool's node ID when HasPool.
	PoolNode topology.NodeID
	// PoolCapacityPages bounds how many pages the oracle may pool.
	PoolCapacityPages int
	// PoolSharerThreshold mirrors Algorithm 1's sharing cut-off.
	PoolSharerThreshold int
	// Seed breaks placement ties deterministically.
	Seed int64
}

// StaticOraclePlacement computes an initial page placement from
// whole-run access totals: each page goes to its most-frequent accessor;
// with a pool, the hottest widely-shared pages go to the pool until
// capacity is exhausted. Being an oracle, it is allowed a global sort —
// unlike Algorithm 1, which is restricted to one unsorted pass.
func StaticOraclePlacement(total *PageCounts, cfg StaticOracleConfig) []topology.NodeID {
	if cfg.Sockets <= 0 {
		panic(fmt.Sprintf("migrate: invalid oracle config %+v", cfg))
	}
	pages := total.Pages()
	home := make([]topology.NodeID, pages)
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Default: best socket (first-touch stand-in for untouched pages).
	for pg := 0; pg < pages; pg++ {
		best, count := total.Argmax(uint32(pg))
		if count == 0 {
			best = rng.Intn(cfg.Sockets)
		}
		home[pg] = topology.NodeID(best)
	}
	if !cfg.HasPool || cfg.PoolCapacityPages <= 0 {
		return home
	}

	// Pool the hottest widely-shared pages.
	type hotPage struct {
		pg    uint32
		total uint64
	}
	var candidates []hotPage
	for pg := 0; pg < pages; pg++ {
		if total.Sharers(uint32(pg)) >= cfg.PoolSharerThreshold {
			candidates = append(candidates, hotPage{uint32(pg), total.Total(uint32(pg))})
		}
	}
	sort.Slice(candidates, func(i, j int) bool {
		if candidates[i].total != candidates[j].total {
			return candidates[i].total > candidates[j].total
		}
		return candidates[i].pg < candidates[j].pg
	})
	for i := 0; i < len(candidates) && i < cfg.PoolCapacityPages; i++ {
		home[candidates[i].pg] = cfg.PoolNode
	}
	return home
}
