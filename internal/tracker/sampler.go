package tracker

// Sampler models the conventional software-based access tracking the
// paper argues against (§III-D1): each migration phase the OS "poisons"
// a sampled subset of regions; the first access to a poisoned page
// triggers a minor page fault whose handler records the access. Two
// consequences, both of which StarNUMA's hardware tracker removes:
//
//  1. Coverage: only the sampled regions produce metadata, so the
//     migration policy is blind to hot regions outside the sample.
//  2. Overhead: every first touch of a poisoned page costs a minor page
//     fault (thousands of cycles) on the faulting core.
//
// The Sampler wraps a Table; the sample is redrawn deterministically per
// phase so trace simulation (step B) and timing simulation (step C)
// observe identical sampling decisions. Step B fills the table with the
// Sampled regions' phase counts only; step C charges the faults through
// WouldFault and MarkFaulted.
type Sampler struct {
	table *Table
	// frac is the fraction of regions monitored each phase.
	frac float64
	seed uint64

	sampled []bool
	// faultedPages tracks pages that already took their per-phase fault.
	faultedPages map[uint32]bool
}

// NewSampler wraps table, monitoring frac of its regions per phase.
func NewSampler(table *Table, frac float64, seed uint64) *Sampler {
	if frac <= 0 || frac > 1 {
		panic("tracker: sample fraction out of (0,1]")
	}
	s := &Sampler{table: table, frac: frac, seed: seed,
		sampled:      make([]bool, table.NumRegions()),
		faultedPages: make(map[uint32]bool)}
	s.ResetPhase(0)
	return s
}

// splitmix64-style hash for the per-phase sample draw.
func sampleHash(seed, phase, region uint64) uint64 {
	z := seed ^ phase*0x9e3779b97f4a7c15 ^ region*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// ResetPhase redraws the sample for the given phase and clears the
// table and per-phase fault set.
func (s *Sampler) ResetPhase(phase int) {
	s.table.Reset()
	s.faultedPages = make(map[uint32]bool)
	if s.frac >= 1 {
		for r := range s.sampled {
			s.sampled[r] = true
		}
		return
	}
	threshold := uint64(s.frac * float64(1<<63) * 2)
	for r := range s.sampled {
		s.sampled[r] = sampleHash(s.seed, uint64(phase)+1, uint64(r)) < threshold
	}
}

// Sampled reports whether region r is monitored this phase.
func (s *Sampler) Sampled(r int) bool { return s.sampled[r] }

// WouldFault reports whether an access to page would fault without
// recording anything (the timing simulation's query; step C must not
// disturb step B's metadata).
func (s *Sampler) WouldFault(page uint32) bool {
	return s.sampled[s.table.RegionOf(page)] && !s.faultedPages[page]
}

// MarkFaulted consumes page's per-phase fault (timing-side bookkeeping).
func (s *Sampler) MarkFaulted(page uint32) {
	if s.sampled[s.table.RegionOf(page)] {
		s.faultedPages[page] = true
	}
}
