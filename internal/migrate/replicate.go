package migrate

import (
	"fmt"
	"sort"

	"starnuma/internal/sim"
)

// ReplicationConfig controls the page replication study (§V-F): an
// alternative to pooling in which widely-shared pages are replicated
// into every sharer's local memory. Reads hit the local replica; writes
// must keep replicas coherent in software, which the paper argues is
// prohibitive for read-write pages.
type ReplicationConfig struct {
	Enable bool
	// MinSharers: only pages this widely shared are replication
	// candidates (mirrors Algorithm 1's pool threshold).
	MinSharers int
	// MaxWriteFrac: pages writing more than this are excluded — software
	// replica coherence on write-hot pages is the study's point of
	// failure.
	MaxWriteFrac float64
	// CapacityFrac bounds the replicated footprint fraction, modelling
	// the memory-capacity pressure replication causes (each replica
	// consumes a full copy in every sharer socket).
	CapacityFrac float64
	// WritePenaltyCycles is the software coherence cost charged to every
	// store that hits a replicated page (invalidating replicas via
	// interprocessor interrupts and kernel handlers).
	WritePenaltyCycles sim.Cycles
}

// DefaultReplicationConfig mirrors the paper's framing: replicate
// read-mostly pages shared by 8+ sockets, capped at 25% of the
// footprint, with a multi-microsecond software penalty per store.
func DefaultReplicationConfig() ReplicationConfig {
	return ReplicationConfig{
		MinSharers:         8,
		MaxWriteFrac:       0.05,
		CapacityFrac:       0.25,
		WritePenaltyCycles: 5000,
	}
}

// Validate reports configuration errors.
func (c ReplicationConfig) Validate() error {
	if !c.Enable {
		return nil
	}
	if c.MinSharers < 1 {
		return fmt.Errorf("migrate: replication MinSharers %d", c.MinSharers)
	}
	if c.MaxWriteFrac < 0 || c.MaxWriteFrac > 1 {
		return fmt.Errorf("migrate: replication MaxWriteFrac %v", c.MaxWriteFrac)
	}
	if c.CapacityFrac <= 0 || c.CapacityFrac > 1 {
		return fmt.Errorf("migrate: replication CapacityFrac %v", c.CapacityFrac)
	}
	if c.WritePenaltyCycles < 0 {
		return fmt.Errorf("migrate: replication WritePenaltyCycles %d", c.WritePenaltyCycles)
	}
	return nil
}

// Replicator is implemented by policies that select pages for software
// replication as part of their decisions. core consumes the final set
// into TraceResult.Replicated and threads the returned model into the
// step-C configuration, so replica reads hit socket-local copies and
// replica writes pay the software coherence penalty.
type Replicator interface {
	// ReplicatedSet returns the pages selected for replication (nil when
	// nothing was selected).
	ReplicatedSet() []bool
	// ReplicationModel returns the timing model for the replica set.
	ReplicationModel() ReplicationConfig
}

// ReplicationPolicy turns the §V-F study into a dynamic policy:
// Algorithm 1's scan handles region placement, while a per-phase pass
// over the page counts replicates hot, widely-shared, read-mostly pages
// — the vagabond pages that architecturally lack a good single home.
// Selection is sticky (a replica, once made, stays) and bounded by the
// capacity budget; replicated pages are kept out of the pool, whose
// capacity is better spent on write-shared pages replicas cannot serve.
type ReplicationPolicy struct {
	inner *StarNUMA
	cfg   ReplicationConfig
	hot   uint64 // per-phase access floor for a replication candidate

	replicated []bool
	nRepl      int
}

// Stats implements Policy.
func (p *ReplicationPolicy) Stats() Stats { return p.inner.Stats() }

// ReplicatedSet implements Replicator.
func (p *ReplicationPolicy) ReplicatedSet() []bool { return p.replicated }

// ReplicationModel implements Replicator.
func (p *ReplicationPolicy) ReplicationModel() ReplicationConfig { return p.cfg }

// Decide implements Policy.
func (p *ReplicationPolicy) Decide(phase int, st *State) []Migration {
	if st.Counts != nil {
		p.updateReplicas(st)
	}
	out := p.inner.Decide(phase, st)
	if !st.HasPool || p.nRepl == 0 {
		return out
	}
	// Replicated pages are read socket-locally; pooling them wastes
	// capacity. Cancel the scan's pool-bound moves of replicated pages.
	kept := out[:0]
	for _, m := range out {
		if m.To == st.PoolNode && int(m.Page) < len(p.replicated) && p.replicated[m.Page] {
			st.PageHome[m.Page] = m.From
			continue
		}
		kept = append(kept, m)
	}
	return kept
}

// updateReplicas grows the sticky replica set from this phase's counts.
func (p *ReplicationPolicy) updateReplicas(st *State) {
	if p.replicated == nil {
		p.replicated = make([]bool, len(st.PageHome))
	}
	p.nRepl = selectReplicas(st.Counts, p.cfg, p.hot, p.replicated, p.nRepl)
}

// ReplicationSet selects the pages to replicate from whole-run access
// knowledge: the hottest pages that are widely shared and read-mostly,
// up to the capacity budget. Like the static oracle, the study is
// deliberately idealized — it measures replication's best case.
func ReplicationSet(total *PageCounts, cfg ReplicationConfig) []bool {
	out := make([]bool, total.Pages())
	if cfg.Enable {
		// Any page with a sharer has been accessed, so a floor of one
		// access admits every widely-shared page.
		selectReplicas(total, cfg, 1, out, 0)
	}
	return out
}

// selectReplicas adds replication candidates to set, which already holds
// n pages, and returns its new size. A candidate is not yet in set, has
// at least cfg.MinSharers sharer sockets, writes at most
// cfg.MaxWriteFrac of its accesses and has at least floor accesses in
// counts. Candidates join hottest first (ties by page) until set holds
// the cfg.CapacityFrac budget.
func selectReplicas(counts *PageCounts, cfg ReplicationConfig, floor uint64, set []bool, n int) int {
	budget := int(cfg.CapacityFrac * float64(len(set)))
	if n >= budget {
		return n
	}
	type cand struct {
		pg  uint32
		tot uint64
	}
	var cands []cand
	for pg, in := range set {
		u := uint32(pg)
		if in {
			continue
		}
		tot := counts.Total(u)
		if tot < floor || counts.Sharers(u) < cfg.MinSharers ||
			counts.WriteFrac(u) > cfg.MaxWriteFrac {
			continue
		}
		cands = append(cands, cand{u, tot})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].tot != cands[j].tot {
			return cands[i].tot > cands[j].tot
		}
		return cands[i].pg < cands[j].pg
	})
	for _, c := range cands {
		if n >= budget {
			break
		}
		set[c.pg] = true
		n++
	}
	return n
}
