package migrate

// EpochAdaptive wraps Algorithm 1's scan with an outer feedback loop:
// each epoch (decision point) it reads the previous phase's placement
// feedback from the environment and steers the dynamic HI threshold
// toward a target remote-access fraction. A high remote fraction means
// placement is lagging the workload — lower HI so more regions qualify
// for migration; a low one means placement has converged — raise HI and
// stop paying migration costs for marginal moves. This composes with
// (rather than replaces) §IV-C's candidate-ratio adjustment, which
// reacts to scan pressure, not to outcome.
type EpochAdaptive struct {
	inner        *StarNUMA
	feedback     func() PhaseFeedback
	targetRemote float64
	step         float64
}

// Stats implements Policy.
func (p *EpochAdaptive) Stats() Stats { return p.inner.Stats() }

// Thresholds exposes the controlled HI/LO pair (tests, diagnostics).
func (p *EpochAdaptive) Thresholds() (hi, lo uint32) { return p.inner.Thresholds() }

// Decide implements Policy.
func (p *EpochAdaptive) Decide(phase int, st *State) []Migration {
	fb := p.feedback()
	if fb.Accesses > 0 {
		if fb.RemoteFrac > p.targetRemote {
			p.inner.scaleHi(1 / p.step)
		} else {
			p.inner.scaleHi(p.step)
		}
	}
	return p.inner.Decide(phase, st)
}
