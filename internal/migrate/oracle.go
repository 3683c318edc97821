package migrate

import "starnuma/internal/topology"

// PostPlacer is implemented by policies that compute a whole-run static
// placement once step B's trace is fully observed. core rewrites every
// checkpoint's page map with the returned placement and drops all
// migrations — the §V-B zero-cost methodology.
type PostPlacer interface {
	// PostPlace returns the placement for every page, derived from the
	// whole-run access totals.
	PostPlace(totals *PageCounts) []topology.NodeID
}

// OraclePolicy is the tournament's zero-cost upper bound: it performs no
// dynamic migrations (so the timing windows pay no migration stalls,
// shootdowns or transfer traffic) and instead places every page
// oracularly from whole-run totals — each page at its most frequent
// accessor, the hottest widely-shared pages in the pool.
type OraclePolicy struct {
	cfg StaticOracleConfig
}

// Stats implements Policy.
func (*OraclePolicy) Stats() Stats { return Stats{} }

// Decide implements Policy: the oracle never migrates dynamically.
func (*OraclePolicy) Decide(int, *State) []Migration { return nil }

// PostPlace implements PostPlacer.
func (p *OraclePolicy) PostPlace(totals *PageCounts) []topology.NodeID {
	return StaticOraclePlacement(totals, p.cfg)
}
