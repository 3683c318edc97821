// Package fault is the deterministic fault-injection subsystem for the
// StarNUMA fabric. A Plan is a declarative, JSON-loadable list of fault
// events scheduled at simulated phases and simulated times — never wall
// clocks — so a run under a plan is a pure function of
// (system, sim, workload, plan) and remains bit-reproducible: the plan
// rides core.SimConfig into the runner's content-addressed cache key,
// and the same plan + seed yields byte-identical Results at any worker
// count.
//
// Four event kinds model the failure modes a star-attached CXL pool
// must survive:
//
//   - "degrade": a link serves traffic with latency ×LatencyX and
//     bandwidth ÷BandwidthDiv for a phase/time window (a misbehaving
//     retimer, a downtrained x8→x4 port);
//   - "flap": a link goes down periodically; messages arriving during a
//     down interval wait for the link to retrain and then pay a retry
//     cost (transient CXL port flaps with retry/backoff);
//   - "kill": a pool DDR channel — or the whole multi-headed device —
//     fails permanently from a phase onward;
//   - "capacity": the pool's usable capacity shrinks to CapacityFrac of
//     nominal for a phase range (an operator squeeze, a co-tenant's
//     reservation, RAS-triggered page offlining) — migrate drains the
//     overflow exactly as it does for dead channels.
//
// Consumers query a compiled Schedule: internal/link installs per-link
// Injectors that adjust each Send, internal/memdev and internal/pool
// take the PoolState to reroute traffic off dead channels and shrink
// the capacity budget, and internal/migrate drains vagabond pages off
// dying channels (falling back to socket-only StarNUMA-Halt behaviour
// when the pool is fully dead).
//
// The package performs no file IO and reads no clocks or environment —
// it is part of the determinism contract (starnumavet's SimPackages);
// plan files are read by the exp/cmd layer and handed in as bytes.
package fault

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"starnuma/internal/stats"
)

// Kind names a fault event's behaviour.
type Kind string

const (
	// Degrade scales a link's latency and divides its bandwidth.
	Degrade Kind = "degrade"
	// Flap takes a link down periodically; sends during a down interval
	// wait for retrain and pay a retry cost.
	Flap Kind = "flap"
	// Kill permanently fails a pool DDR channel (target "pool:chN") or
	// the whole device (target "pool") from FromPhase onward.
	Kill Kind = "kill"
	// Capacity shrinks the pool's usable capacity to CapacityFrac of
	// nominal (target "pool") for a phase range; unlike Kill it can heal
	// when ToPhase closes the range.
	Capacity Kind = "capacity"
)

// Event is one scheduled fault. Link events (degrade, flap) are scoped
// by phase range and optionally by a window-relative simulated-time
// range; kill events are permanent from FromPhase.
type Event struct {
	Kind Kind `json:"kind"`
	// Target selects the faulted component as "class" or "class:sub".
	// Link classes: "link" (every link), "cxl", "upi", "upi-asic",
	// "numalink"; sub restricts to links with the named endpoint (e.g.
	// "cxl:s3" is socket 3's pool port, both directions). Kill targets:
	// "pool" (whole device) or "pool:chN" (one DDR channel).
	Target string `json:"target"`
	// FromPhase..ToPhase scope the event to checkpoint phases;
	// ToPhase 0 means open-ended. Kill events must leave ToPhase 0:
	// permanent failures do not heal.
	FromPhase int `json:"from_phase"`
	ToPhase   int `json:"to_phase,omitempty"`
	// FromNS..ToNS further scope link events within each affected timing
	// window, in window-relative simulated nanoseconds; ToNS 0 means
	// until the window ends.
	FromNS float64 `json:"from_ns,omitempty"`
	ToNS   float64 `json:"to_ns,omitempty"`
	// Degrade knobs: latency multiplier and bandwidth divisor (each ≥ 1;
	// 0 means unchanged; at least one must be > 1).
	LatencyX     float64 `json:"latency_x,omitempty"`
	BandwidthDiv float64 `json:"bandwidth_div,omitempty"`
	// Flap knobs: the link is down for the first DownNS of every
	// PeriodNS, and a send hitting a down interval additionally pays
	// RetryNS of retry/backoff cost after the link comes back.
	PeriodNS float64 `json:"period_ns,omitempty"`
	DownNS   float64 `json:"down_ns,omitempty"`
	RetryNS  float64 `json:"retry_ns,omitempty"`
	// Capacity knob: the fraction of nominal pool capacity that stays
	// usable while the event is active (must be in (0, 1)).
	CapacityFrac float64 `json:"capacity_frac,omitempty"`
}

// Plan is a named, validated set of fault events. The zero Plan (and a
// nil *Plan) injects nothing and simulates bit-identically to a
// fault-free run.
type Plan struct {
	Name   string  `json:"name,omitempty"`
	Events []Event `json:"events"`
}

// ParsePlan decodes and validates a JSON plan. Unknown fields,
// malformed JSON, trailing garbage, and semantically invalid events
// (unknown kinds/targets, negative times, overlapping same-kind
// windows) are all rejected with an error; ParsePlan never panics.
func ParsePlan(data []byte) (*Plan, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	p := &Plan{}
	if err := dec.Decode(p); err != nil {
		return nil, fmt.Errorf("fault: parse plan: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("fault: parse plan: trailing data after plan object")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// linkClasses are the target classes that select interconnect links.
var linkClasses = []string{"link", "cxl", "upi", "upi-asic", "numalink"}

// splitTarget separates "class:sub" into its parts.
func splitTarget(target string) (class, sub string) {
	class, sub, _ = strings.Cut(target, ":")
	return strings.ToLower(class), sub
}

// isLinkClass reports whether class selects links.
func isLinkClass(class string) bool {
	for _, c := range linkClasses {
		if class == c {
			return true
		}
	}
	return false
}

// killChannel parses a kill event's channel sub-target: -1 for the
// whole device, N for "chN".
func killChannel(sub string) (int, error) {
	if sub == "" {
		return -1, nil
	}
	num, ok := strings.CutPrefix(sub, "ch")
	if !ok {
		return 0, fmt.Errorf("pool sub-target %q is not chN", sub)
	}
	n, err := strconv.Atoi(num)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("pool channel %q is not a non-negative integer", sub)
	}
	return n, nil
}

// validate checks one event in isolation.
func (e Event) validate() error {
	class, sub := splitTarget(e.Target)
	if e.FromPhase < 0 {
		return fmt.Errorf("negative from_phase %d", e.FromPhase)
	}
	if e.ToPhase < 0 {
		return fmt.Errorf("negative to_phase %d", e.ToPhase)
	}
	if e.ToPhase != 0 && e.ToPhase <= e.FromPhase {
		return fmt.Errorf("empty phase range [%d, %d)", e.FromPhase, e.ToPhase)
	}
	if e.FromNS < 0 || e.ToNS < 0 {
		return fmt.Errorf("negative time range [%v, %v)", e.FromNS, e.ToNS)
	}
	if !stats.IsZero(e.ToNS) && e.ToNS <= e.FromNS {
		return fmt.Errorf("empty time range [%vns, %vns)", e.FromNS, e.ToNS)
	}
	switch e.Kind {
	case Degrade:
		if !isLinkClass(class) {
			return fmt.Errorf("degrade needs a link target, got %q", e.Target)
		}
		if !stats.IsZero(e.LatencyX) && e.LatencyX < 1 {
			return fmt.Errorf("latency_x %v < 1", e.LatencyX)
		}
		if !stats.IsZero(e.BandwidthDiv) && e.BandwidthDiv < 1 {
			return fmt.Errorf("bandwidth_div %v < 1", e.BandwidthDiv)
		}
		if e.LatencyX <= 1 && e.BandwidthDiv <= 1 {
			return fmt.Errorf("degrade with no effect (latency_x and bandwidth_div both ≤ 1)")
		}
	case Flap:
		if !isLinkClass(class) {
			return fmt.Errorf("flap needs a link target, got %q", e.Target)
		}
		if e.PeriodNS <= 0 {
			return fmt.Errorf("flap period_ns %v must be > 0", e.PeriodNS)
		}
		if e.DownNS <= 0 || e.DownNS >= e.PeriodNS {
			return fmt.Errorf("flap down_ns %v must be in (0, period_ns=%v)", e.DownNS, e.PeriodNS)
		}
		if e.RetryNS < 0 {
			return fmt.Errorf("negative flap retry_ns %v", e.RetryNS)
		}
	case Kill:
		if class != "pool" {
			return fmt.Errorf("kill needs a pool target, got %q", e.Target)
		}
		if _, err := killChannel(sub); err != nil {
			return err
		}
		if e.ToPhase != 0 || !stats.IsZero(e.FromNS) || !stats.IsZero(e.ToNS) {
			return fmt.Errorf("kill is permanent: to_phase/from_ns/to_ns must be unset")
		}
	case Capacity:
		if class != "pool" || sub != "" {
			return fmt.Errorf("capacity needs target \"pool\", got %q", e.Target)
		}
		if e.CapacityFrac <= 0 || e.CapacityFrac >= 1 {
			return fmt.Errorf("capacity_frac %v must be in (0, 1)", e.CapacityFrac)
		}
		if !stats.IsZero(e.FromNS) || !stats.IsZero(e.ToNS) {
			return fmt.Errorf("capacity is phase-granular: from_ns/to_ns must be unset")
		}
	default:
		return fmt.Errorf("unknown kind %q", e.Kind)
	}
	return nil
}

// rangesIntersect reports whether half-open ranges [a1,b1) and [a2,b2)
// intersect, with b ≤ 0 meaning open-ended.
func rangesIntersect(a1, b1, a2, b2 float64) bool {
	if b1 > 0 && a2 >= b1 {
		return false
	}
	if b2 > 0 && a1 >= b2 {
		return false
	}
	return true
}

// overlaps reports whether two events of the same kind can be active on
// the same component at the same instant, which Validate rejects so
// composed adjustments stay unambiguous.
func overlaps(a, b Event) bool {
	if a.Kind != b.Kind {
		return false
	}
	ac, as := splitTarget(a.Target)
	bc, bs := splitTarget(b.Target)
	if a.Kind == Kill {
		an, _ := killChannel(as)
		bn, _ := killChannel(bs)
		if an != -1 && bn != -1 && an != bn {
			return false // distinct channels
		}
		return true // kills are permanent, so they always co-occur
	}
	// Link classes intersect when equal or when either is the "link"
	// wildcard; sub-targets intersect when equal or when either is empty.
	if ac != bc && ac != "link" && bc != "link" {
		return false
	}
	if as != bs && as != "" && bs != "" {
		return false
	}
	if !rangesIntersect(float64(a.FromPhase), float64(a.ToPhase), float64(b.FromPhase), float64(b.ToPhase)) {
		return false
	}
	return rangesIntersect(a.FromNS, a.ToNS, b.FromNS, b.ToNS)
}

// Validate reports the first semantic error in the plan. A nil plan is
// valid (no faults).
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	for i, e := range p.Events {
		if err := e.validate(); err != nil {
			return fmt.Errorf("fault: event %d: %v", i, err)
		}
		for j := 0; j < i; j++ {
			if overlaps(p.Events[j], e) {
				return fmt.Errorf("fault: events %d and %d overlap (same kind %q on intersecting targets, phases and times)",
					j, i, e.Kind)
			}
		}
	}
	return nil
}

// CheckChannels reports the first kill event that names a DDR channel a
// pool of the given channel count does not have. Validate cannot know
// the channel count; the caller that pairs a plan with a pooled system
// does, and a kill of a missing channel would otherwise fail nothing.
func (p *Plan) CheckChannels(channels int) error {
	if p == nil {
		return nil
	}
	for i, e := range p.Events {
		if e.Kind != Kill {
			continue
		}
		_, sub := splitTarget(e.Target)
		if ch, err := killChannel(sub); err == nil && ch >= channels {
			return fmt.Errorf("fault: event %d: kill target %q names channel %d, but the pool has %d channels", i, e.Target, ch, channels)
		}
	}
	return nil
}
