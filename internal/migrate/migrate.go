// Package migrate implements StarNUMA's page migration machinery:
// Algorithm 1's threshold-based region migration with dynamic threshold
// adjustment, ping-pong suppression and victim eviction (§III-D2,
// §IV-C), plus the two comparison policies the paper evaluates — the
// favoured baseline with zero-cost perfect per-page access knowledge,
// and oracular static placement (§V-B).
package migrate

import (
	"fmt"
	"math/rand"
	"sort"

	"starnuma/internal/evtrace"
	"starnuma/internal/sim"
	"starnuma/internal/topology"
	"starnuma/internal/tracker"
)

// Migration is one page move decided at a phase boundary. Drain marks
// moves a fault drain forced (evacuating a failing pool device) rather
// than a policy chose; the stall-attribution ledger (internal/attrib)
// uses it to charge demand stalls behind the move to the drain
// category instead of migration.
type Migration struct {
	Page     uint32
	From, To topology.NodeID
	Drain    bool
}

// State is the placement state a policy inspects and mutates when
// deciding migrations.
type State struct {
	// PageHome maps each page to its current home node. Policies update
	// it in place as they decide migrations.
	PageHome []topology.NodeID
	// Tracker is the region metadata table (StarNUMA policies).
	Tracker *tracker.Table
	// Counts is perfect per-page knowledge (baseline policy and oracle).
	Counts *PageCounts

	Sockets           int
	HasPool           bool
	PoolNode          topology.NodeID
	PoolCapacityPages int

	// Trace is the step-B event buffer decisions record into; nil when
	// event tracing (internal/evtrace) is off. TraceTs is the phase-clock
	// timestamp stamped on events — set via BeginTracePhase, which also
	// resets the per-phase event caps. Recording is passive: decisions
	// are identical with tracing on or off.
	Trace   *evtrace.Buffer
	TraceTs sim.Time

	trcMoves int // per-phase recorded move decisions (capped)
	trcSkips int // per-phase recorded ping-pong skips (capped)
}

// poolPages counts pages currently homed in the pool.
func (s *State) poolPages() int {
	if !s.HasPool {
		return 0
	}
	n := 0
	for _, h := range s.PageHome {
		if h == s.PoolNode {
			n++
		}
	}
	return n
}

// Policy decides a phase's migrations.
type Policy interface {
	// Decide inspects st at the end of the given phase (0-based),
	// mutates st.PageHome, and returns the migrations performed.
	Decide(phase int, st *State) []Migration
	// Stats returns the policy's lifetime decision counters (the zero
	// Stats for policies that keep none).
	Stats() Stats
}

// Stats counts a policy's lifetime decisions; used for Table IV.
type Stats struct {
	PagesToPool   uint64
	PagesToSocket uint64
	Evictions     uint64 // pages evicted from the pool to make room
	PingPongSkips uint64
	EvictFailures uint64 // pool-bound migrations dropped: no victim found
	// LinkBackoffPhases counts phases a bandwidth-aware policy suspended
	// pool placement under link saturation.
	LinkBackoffPhases uint64
}

// PoolFraction is the fraction of migrated pages that went to the pool
// (Table IV). Eviction moves are excluded, as in the paper.
func (s Stats) PoolFraction() float64 {
	total := s.PagesToPool + s.PagesToSocket
	if total == 0 {
		return 0
	}
	return float64(s.PagesToPool) / float64(total)
}

// Config parameterises the StarNUMA policy.
type Config struct {
	// HiStart is the initial ACCESS_THRES_HI (region accesses per phase
	// that make a region a migration candidate). Adjusted dynamically.
	HiStart uint32
	// LoStart is the initial ACCESS_THRES_LO for victim selection.
	LoStart uint32
	// HiMin/HiMax bound the dynamic adjustment.
	HiMin, HiMax uint32
	// LoMax bounds the eviction threshold's dynamic growth.
	LoMax uint32
	// MigrationLimit is Algorithm 1's MIGRATION_LIMIT in pages per phase.
	MigrationLimit int
	// PoolSharerThreshold: regions with at least this many sharer
	// sockets go to the pool (8 in Algorithm 1 line 8).
	PoolSharerThreshold int
	// Seed drives the random sharer choices of Algorithm 1.
	Seed int64
	// DisablePingPong turns off the ping-pong suppression footnote of
	// Algorithm 1 (ablation).
	DisablePingPong bool
}

// DefaultConfig returns Algorithm 1 parameters scaled to our phase
// lengths (the paper's 20K-per-1B-instruction threshold, rescaled; see
// DESIGN.md §4).
func DefaultConfig() Config {
	return Config{
		HiStart: 512, LoStart: 16,
		HiMin: 32, HiMax: 1 << 20, LoMax: 4096,
		MigrationLimit:      8192,
		PoolSharerThreshold: 8,
		Seed:                1,
	}
}

// AutoConfig returns a Config with zero thresholds, signalling that the
// caller should derive them from the workload's access rate (the paper
// likewise starts HI at 20K region accesses per 1B-instruction phase and
// adjusts dynamically, §IV-C). The StarNUMA policy factories
// (starnumaConfig) fill the zeros via Config.AutoScale.
func AutoConfig() Config {
	c := DefaultConfig()
	c.HiStart, c.HiMin, c.HiMax, c.LoStart, c.LoMax = 0, 0, 0, 0, 0
	return c
}

// trackerSaturation is the T16 counter's saturation value; thresholds
// above it can never fire, so AutoScale clamps against it.
const trackerSaturation = 0xFFFF

// AutoScale fills zero threshold fields from the expected mean region
// access count per phase: HI starts at the mean (hot regions qualify
// immediately) and the dynamic adjustment may lower it to half the
// mean; LO scales proportionally for victim selection. All
// values are clamped below the T16 counter's saturation point —
// otherwise bandwidth-heavy workloads (SSSP's MPKI of 73) could set a
// threshold no saturating counter can reach.
func (c Config) AutoScale(meanRegionAccessesPerPhase float64) Config {
	m := uint32(meanRegionAccessesPerPhase)
	if m < 8 {
		m = 8
	}
	clamp := func(v, max uint32) uint32 {
		if v > max {
			return max
		}
		return v
	}
	if c.HiStart == 0 {
		// Start at the mean region heat: hot regions qualify in the very
		// first phase (each phase of delay is a timing window without
		// pool placements), and the dynamic adjustment trims from there.
		c.HiStart = clamp(m, trackerSaturation*3/4)
	}
	if c.HiMin == 0 {
		c.HiMin = clamp(m/2, trackerSaturation/2)
	}
	if c.HiMax == 0 {
		c.HiMax = clamp(256*m, trackerSaturation)
	}
	if c.LoStart == 0 {
		c.LoStart = m / 16
		if c.LoStart == 0 {
			c.LoStart = 1
		}
	}
	if c.LoMax == 0 {
		c.LoMax = m / 2
		if c.LoMax < c.LoStart {
			c.LoMax = c.LoStart
		}
	}
	return c
}

// StarNUMA is Algorithm 1: a single-pass threshold policy over the
// region tracker.
type StarNUMA struct {
	cfg      Config
	hi, lo   uint32
	rng      *rand.Rand
	migCount []int // per-region migration count, for ping-pong detection
	stats    Stats
}

// NewStarNUMA creates the policy.
func NewStarNUMA(cfg Config) *StarNUMA {
	if cfg.MigrationLimit < 0 || cfg.PoolSharerThreshold < 1 {
		panic(fmt.Sprintf("migrate: invalid config %+v", cfg))
	}
	return &StarNUMA{cfg: cfg, hi: cfg.HiStart, lo: cfg.LoStart,
		rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Stats returns decision counters.
func (p *StarNUMA) Stats() Stats { return p.stats }

// Thresholds returns the current dynamic HI/LO thresholds (for tests and
// diagnostics).
func (p *StarNUMA) Thresholds() (hi, lo uint32) { return p.hi, p.lo }

// scaleHi multiplies the dynamic HI threshold by f, clamped to the
// configured [HiMin, HiMax] band — the hook outer feedback controllers
// (EpochAdaptive) steer through.
func (p *StarNUMA) scaleHi(f float64) {
	hi := uint32(float64(p.hi)*f + 0.5)
	if hi < p.cfg.HiMin {
		hi = p.cfg.HiMin
	}
	if hi > p.cfg.HiMax {
		hi = p.cfg.HiMax
	}
	if hi < 1 {
		hi = 1
	}
	p.hi = hi
}

// regionLocation derives each region's location as the majority home of
// its pages. After first-touch or previous migrations, pages of a region
// can be split; the majority matches the paper's notion of a (physical)
// region living in one place.
func regionLocation(st *State, tbl *tracker.Table) []topology.NodeID {
	nodes := st.Sockets
	if st.HasPool {
		nodes++
	}
	loc := make([]topology.NodeID, tbl.NumRegions())
	votes := make([]int, nodes)
	for r := 0; r < tbl.NumRegions(); r++ {
		for i := range votes {
			votes[i] = 0
		}
		first, count := tbl.PageRange(r)
		best, bestV := topology.NodeID(-1), 0
		for pg := first; pg < first+count && pg < len(st.PageHome); pg++ {
			h := st.PageHome[pg]
			if h < 0 {
				continue // untouched page: no home yet
			}
			votes[h]++
			if votes[h] > bestV {
				best, bestV = h, votes[h]
			}
		}
		loc[r] = best
	}
	return loc
}

// movePages rehomes all pages of region r to dest, returning the
// migrations performed.
func movePages(st *State, tbl *tracker.Table, r int, dest topology.NodeID) []Migration {
	first, count := tbl.PageRange(r)
	var out []Migration
	for pg := first; pg < first+count && pg < len(st.PageHome); pg++ {
		if st.PageHome[pg] == dest || st.PageHome[pg] < 0 {
			continue // already there, or never touched — nothing to move
		}
		out = append(out, Migration{Page: uint32(pg), From: st.PageHome[pg], To: dest})
		st.PageHome[pg] = dest
	}
	return out
}

// Decide implements Algorithm 1.
func (p *StarNUMA) Decide(phase int, st *State) []Migration {
	tbl := st.Tracker
	if tbl == nil {
		panic("migrate: StarNUMA policy requires a tracker")
	}
	if p.migCount == nil {
		p.migCount = make([]int, tbl.NumRegions())
	}
	loc := regionLocation(st, tbl)
	poolUsed := st.poolPages()

	var out []Migration
	migrated := 0
	candidatePages := 0

	for r := 0; r < tbl.NumRegions(); r++ {
		// Identify migration candidates (Algorithm 1 lines 6-10).
		hot := false
		if tbl.Kind() == tracker.T0 {
			// T0 cannot rank hotness: fixed threshold of "touched by all
			// sockets" (§IV-C).
			hot = tbl.SharerCount(r) >= st.Sockets
		} else {
			hot = tbl.Count(r) >= p.hi
		}
		if !hot {
			continue
		}
		candidatePages += tbl.RegionPages()
		if migrated >= p.cfg.MigrationLimit {
			continue // keep counting candidates for threshold adjustment
		}
		sharers := tbl.SharerSet(r)
		if len(sharers) == 0 {
			continue
		}
		best := topology.NodeID(sharers[p.rng.Intn(len(sharers))])
		if st.HasPool && len(sharers) >= p.cfg.PoolSharerThreshold {
			best = st.PoolNode
		}
		if best == loc[r] {
			continue
		}
		// Ping-pong check (Algorithm 1 line 12 + footnote).
		if !p.cfg.DisablePingPong && p.migCount[r] > (phase+1)/4 {
			p.stats.PingPongSkips++
			st.traceSkip(r)
			continue
		}
		// Eviction candidate (lines 13-23).
		if st.HasPool && best == st.PoolNode {
			need := tbl.RegionPages()
			for poolUsed+need > st.PoolCapacityPages {
				victim := p.findVictim(st, tbl, loc, r)
				if victim < 0 {
					p.stats.EvictFailures++
					if p.lo*2 <= p.cfg.LoMax {
						p.lo *= 2
					}
					break
				}
				dest := p.victimDestination(tbl, victim, st)
				moved := movePages(st, tbl, victim, dest)
				out = append(out, moved...)
				loc[victim] = dest
				poolUsed -= len(moved)
				p.stats.Evictions += uint64(len(moved))
				st.traceMove("evict region", victim, len(moved), dest)
			}
			if poolUsed+need > st.PoolCapacityPages {
				continue // pool still full; skip this migration
			}
		}
		// Perform migration (lines 24-26).
		moved := movePages(st, tbl, r, best)
		if len(moved) == 0 {
			continue
		}
		out = append(out, moved...)
		if best == st.PoolNode && st.HasPool {
			poolUsed += len(moved)
			p.stats.PagesToPool += uint64(len(moved))
		} else {
			p.stats.PagesToSocket += uint64(len(moved))
		}
		st.traceMove("migrate region", r, len(moved), best)
		loc[r] = best
		p.migCount[r]++
		migrated += len(moved)
	}

	p.adjustThresholds(candidatePages)
	return out
}

// findVictim scans for a pool-resident region colder than LO (Algorithm
// 1 lines 15-21), excluding the region being placed.
func (p *StarNUMA) findVictim(st *State, tbl *tracker.Table, loc []topology.NodeID, exclude int) int {
	for v := 0; v < tbl.NumRegions(); v++ {
		if v == exclude || loc[v] != st.PoolNode {
			continue
		}
		if tbl.Kind() == tracker.T0 {
			// No counts: a pool region no longer touched by everyone is
			// cold by T0's standards.
			if tbl.SharerCount(v) < st.Sockets {
				return v
			}
		} else if tbl.Count(v) <= p.lo {
			return v
		}
	}
	return -1
}

// victimDestination picks a random sharer of the victim (Algorithm 1
// line 22), falling back to a random socket for untouched regions.
func (p *StarNUMA) victimDestination(tbl *tracker.Table, victim int, st *State) topology.NodeID {
	sharers := tbl.SharerSet(victim)
	if len(sharers) == 0 {
		return topology.NodeID(p.rng.Intn(st.Sockets))
	}
	return topology.NodeID(sharers[p.rng.Intn(len(sharers))])
}

// adjustThresholds implements §IV-C's dynamic HI adjustment: HI tracks
// the ratio of candidate pages to the migration limit ("a simple
// function of page count exceeding the threshold relative to the set
// migration limit") so the scan selects roughly MIGRATION_LIMIT pages
// per phase. The multiplicative step is bounded to [1/4, 4] per phase.
func (p *StarNUMA) adjustThresholds(candidatePages int) {
	if p.cfg.MigrationLimit <= 0 {
		return
	}
	ratio := float64(candidatePages) / float64(p.cfg.MigrationLimit)
	var factor float64
	switch {
	case ratio > 1.25:
		factor = ratio
		if factor > 4 {
			factor = 4
		}
	case ratio < 0.75:
		// Descend fast: a near-empty candidate set means the threshold
		// is far above the workload's heat level, and every phase spent
		// descending is a phase without pool placements.
		factor = ratio
		if factor < 0.1 {
			factor = 0.1
		}
	default:
		return
	}
	hi := uint32(float64(p.hi) * factor)
	if hi < p.cfg.HiMin {
		hi = p.cfg.HiMin
	}
	if hi > p.cfg.HiMax {
		hi = p.cfg.HiMax
	}
	p.hi = hi
}

// sortMigrationsByPage orders migrations deterministically (helper for
// tests and stable checkpoint encoding).
func sortMigrationsByPage(ms []Migration) {
	sort.Slice(ms, func(i, j int) bool { return ms[i].Page < ms[j].Page })
}
