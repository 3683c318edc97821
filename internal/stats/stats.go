// Package stats provides the measurement types of the evaluation:
// memory-access breakdowns by type (Fig. 8c), AMAT accounting split into
// unloaded latency and contention delay (Fig. 8b), and small numeric
// helpers (geometric mean) used across experiment reports.
package stats

import (
	"encoding/json"
	"fmt"
	"math"

	"starnuma/internal/sim"
)

// AccessType classifies a serviced memory access, matching the
// categories of the paper's Fig. 8c.
type AccessType int

const (
	// Local is an access to the socket's own memory.
	Local AccessType = iota
	// OneHop is an intra-chassis remote access (single UPI hop).
	OneHop
	// TwoHop is an inter-chassis remote access.
	TwoHop
	// Pool is a memory-pool access over a CXL link.
	Pool
	// BTSocket is a coherence-triggered 3-hop socket-to-socket block
	// transfer.
	BTSocket
	// BTPool is a coherence-triggered 4-hop block transfer via the pool.
	BTPool

	// NumAccessTypes is the number of categories.
	NumAccessTypes
)

// String names the access type as in Fig. 8's legend.
func (t AccessType) String() string {
	switch t {
	case Local:
		return "Local"
	case OneHop:
		return "1-hop"
	case TwoHop:
		return "2-hop"
	case Pool:
		return "Pool"
	case BTSocket:
		return "BT_Socket"
	case BTPool:
		return "BT_Pool"
	default:
		return fmt.Sprintf("AccessType(%d)", int(t))
	}
}

// UnloadedLatency returns the paper's unloaded latency for each access
// type (§V-A): local 80ns, 1-hop 130ns, 2-hop 360ns, pool 180ns,
// BT_Socket 413ns, BT_Pool 280ns.
func (t AccessType) UnloadedLatency() sim.Time {
	switch t {
	case Local:
		return 80 * sim.Nanosecond
	case OneHop:
		return 130 * sim.Nanosecond
	case TwoHop:
		return 360 * sim.Nanosecond
	case Pool:
		return 180 * sim.Nanosecond
	case BTSocket:
		return 413 * sim.Nanosecond
	case BTPool:
		return 280 * sim.Nanosecond
	default:
		panic(fmt.Sprintf("stats: unknown access type %d", int(t)))
	}
}

// Breakdown counts accesses by type.
type Breakdown [NumAccessTypes]uint64

// Add counts one access.
func (b *Breakdown) Add(t AccessType) { b[t]++ }

// Total returns the access count across types.
func (b Breakdown) Total() uint64 {
	var n uint64
	for _, v := range b {
		n += v
	}
	return n
}

// Fractions returns each type's share of the total (zeros if empty).
func (b Breakdown) Fractions() [NumAccessTypes]float64 {
	var out [NumAccessTypes]float64
	total := b.Total()
	if total == 0 {
		return out
	}
	for i, v := range b {
		out[i] = float64(v) / float64(total)
	}
	return out
}

// Merge adds other's counts into b.
func (b *Breakdown) Merge(other Breakdown) {
	for i, v := range other {
		b[i] += v
	}
}

// AMAT is the average-memory-access-time accounting of Fig. 8b. The
// measured mean comes from the timing simulation; the unloaded component
// is derived analytically from the access breakdown exactly as the paper
// does: Σ (type fraction × type unloaded latency). Contention delay is
// the difference.
type AMAT struct {
	sumLatency sim.Time
	count      uint64
	breakdown  Breakdown
	// unloadedOverride lets a system with non-default latencies (e.g.
	// Fig. 10's 270ns pool) substitute its own per-type constants.
	unloadedOverride *[NumAccessTypes]sim.Time
}

// NewAMAT returns an empty accumulator using the paper's default
// unloaded latencies.
func NewAMAT() *AMAT { return &AMAT{} }

// SetUnloadedLatencies overrides the per-type unloaded constants, for
// sensitivity studies that change link latencies.
func (a *AMAT) SetUnloadedLatencies(lat [NumAccessTypes]sim.Time) {
	l := lat
	a.unloadedOverride = &l
}

// Observe records one completed access.
//
//starnuma:hotpath one call per timed memory access
func (a *AMAT) Observe(t AccessType, latency sim.Time) {
	a.sumLatency += latency
	a.count++
	a.breakdown.Add(t)
}

// Count returns the number of observed accesses.
func (a *AMAT) Count() uint64 { return a.count }

// SumLatency returns the total recorded access latency — the exact
// integer the stall-attribution ledger's per-window conservation
// invariant compares against (internal/attrib).
func (a *AMAT) SumLatency() sim.Time { return a.sumLatency }

// Breakdown returns the access-type counts.
func (a *AMAT) Breakdown() Breakdown { return a.breakdown }

// Measured returns the measured mean latency (0 if empty).
func (a *AMAT) Measured() sim.Time {
	if a.count == 0 {
		return 0
	}
	return sim.Time(uint64(a.sumLatency) / a.count)
}

// Unloaded returns the analytically derived zero-contention AMAT.
func (a *AMAT) Unloaded() sim.Time {
	if a.count == 0 {
		return 0
	}
	var sum float64
	fr := a.breakdown.Fractions()
	for t := AccessType(0); t < NumAccessTypes; t++ {
		lat := t.UnloadedLatency()
		if a.unloadedOverride != nil {
			lat = a.unloadedOverride[t]
		}
		sum += fr[t] * float64(lat)
	}
	return sim.Time(sum)
}

// Contention returns measured minus unloaded, floored at zero.
func (a *AMAT) Contention() sim.Time {
	d := a.Measured() - a.Unloaded()
	if d < 0 {
		return 0
	}
	return d
}

// Clone returns an independent copy of a.
func (a *AMAT) Clone() *AMAT {
	c := *a
	if a.unloadedOverride != nil {
		l := *a.unloadedOverride
		c.unloadedOverride = &l
	}
	return &c
}

// Merge combines another accumulator into a (checkpoint aggregation).
func (a *AMAT) Merge(other *AMAT) {
	a.sumLatency += other.sumLatency
	a.count += other.count
	a.breakdown.Merge(other.breakdown)
}

// amatJSON is the serialized form of AMAT; the accumulator's fields are
// unexported, so persistence (internal/runner's result cache) goes
// through an explicit codec that round-trips losslessly.
type amatJSON struct {
	SumLatency sim.Time                  `json:"sum_latency"`
	Count      uint64                    `json:"count"`
	Breakdown  Breakdown                 `json:"breakdown"`
	Unloaded   *[NumAccessTypes]sim.Time `json:"unloaded,omitempty"`
}

// MarshalJSON serializes the accumulator, including any unloaded-latency
// override, so a decoded AMAT reports identical Measured/Unloaded/
// Contention values.
func (a *AMAT) MarshalJSON() ([]byte, error) {
	return json.Marshal(amatJSON{
		SumLatency: a.sumLatency,
		Count:      a.count,
		Breakdown:  a.breakdown,
		Unloaded:   a.unloadedOverride,
	})
}

// UnmarshalJSON restores an accumulator serialized by MarshalJSON.
func (a *AMAT) UnmarshalJSON(b []byte) error {
	var j amatJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	a.sumLatency = j.SumLatency
	a.count = j.Count
	a.breakdown = j.Breakdown
	a.unloadedOverride = j.Unloaded
	return nil
}

// GeoMean returns the geometric mean of vs, ignoring non-positive
// entries; 0 for an empty slice.
func GeoMean(vs []float64) float64 {
	var sum float64
	n := 0
	for _, v := range vs {
		if v > 0 {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Mean returns the arithmetic mean of the finite entries of vs, and 0
// when there are none. Skipping NaN/Inf keeps degenerate measurements
// (a window that retired nothing and produced no IPC sample) from
// poisoning whole-run aggregates.
func Mean(vs []float64) float64 {
	var sum float64
	n := 0
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		sum += v
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// SameFloat reports whether a and b are the same floating-point value,
// bit for bit: NaN matches NaN, and +0 is distinguished from -0. This
// is the sanctioned equality for determinism checks (the floatdet
// analyzer forbids raw == on floats in simulation packages), because it
// asks the question those checks mean: "did the computation produce the
// identical bits?"
func SameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// ApproxEqual reports whether a and b differ by at most tol. NaN is
// approximately equal to nothing, including itself; use SameFloat for
// bit identity.
func ApproxEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

// IsZero reports whether v is exactly zero (of either sign), the
// sanctioned guard before division.
func IsZero(v float64) bool {
	//starnumavet:allow floatdet this helper is the sanctioned zero test the analyzer points at
	return v == 0
}
