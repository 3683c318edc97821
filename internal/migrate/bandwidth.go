package migrate

// poolPlacementSuspended is a sharer threshold no real sharer set can
// reach (sharer counts are bounded by the socket count), used to switch
// pool placement off for a phase.
const poolPlacementSuspended = 1 << 30

// BandwidthAware wraps Algorithm 1's scan with link-saturation backoff:
// before each decision it consults the environment's health outlook for
// the upcoming timing window (decisions made at the end of phase P are
// modeled during P+1). Under partial degradation it scales the migration
// limit down by the severity factor — every migrated page crosses the
// very fabric that is struggling — and past the backoff point (or with a
// dead pool device) it suspends pool placement entirely, degenerating to
// socket-only StarNUMA-Halt behaviour until the link recovers.
type BandwidthAware struct {
	inner    *StarNUMA
	link     func(phase int) LinkHealth
	backoffX float64

	backoffPhases uint64
}

// Stats implements Policy.
func (p *BandwidthAware) Stats() Stats {
	s := p.inner.Stats()
	s.LinkBackoffPhases = p.backoffPhases
	return s
}

// Decide implements Policy.
func (p *BandwidthAware) Decide(phase int, st *State) []Migration {
	h := p.link(phase + 1)
	sev := h.Severity()
	saved := p.inner.cfg
	if h.PoolDead || sev >= p.backoffX {
		// Suspend pool placement: no sharer set can reach the threshold.
		p.inner.cfg.PoolSharerThreshold = poolPlacementSuspended
		p.backoffPhases++
	}
	if sev > 1 && saved.MigrationLimit > 0 {
		p.inner.cfg.MigrationLimit = int(float64(saved.MigrationLimit) / sev)
	}
	out := p.inner.Decide(phase, st)
	p.inner.cfg = saved
	return out
}
