package scenario

import (
	"fmt"
	"strings"

	"starnuma/internal/attrib"
	"starnuma/internal/fault"
	"starnuma/internal/migrate"
	"starnuma/internal/stats"
	"starnuma/internal/workload"
)

// System base variants.
const (
	BaseStarNUMA     = "starnuma"
	BaseBaseline     = "baseline"
	BaseSingleSocket = "single-socket"
)

// fieldErr formats a validation error that names the offending field,
// e.g. "scenario: workloads[1].scale: negative scale -1".
func fieldErr(field, format string, args ...any) error {
	return fmt.Errorf("scenario: %s: %s", field, fmt.Sprintf(format, args...))
}

// oneOf reports whether v is empty (meaning "default") or one of the
// allowed spellings.
func oneOf(v string, allowed ...string) bool {
	if v == "" {
		return true
	}
	for _, a := range allowed {
		if v == a {
			return true
		}
	}
	return false
}

// validOps are the assertion comparison operators.
var validOps = []string{"<", "<=", ">", ">=", "==", "!="}

// faultCounters are the Result counters kind "fault_counter" can name.
var faultCounters = []string{"degraded_sends", "flap_retries", "drained_pages"}

// Validate reports the first semantic error in the scenario, naming the
// offending field. It checks everything that does not require running a
// simulation: section enums, workload names, the events (as a fault
// plan), and assertion shapes.
func (s *Scenario) Validate() error {
	if s.Schema != Schema {
		return fieldErr("schema", "got %q, want %q", s.Schema, Schema)
	}
	if s.Name == "" {
		return fieldErr("name", "must be set")
	}
	if strings.ContainsAny(s.Name, " \t\n/\\") {
		return fieldErr("name", "%q may not contain whitespace or slashes", s.Name)
	}
	if err := s.validateSystem(); err != nil {
		return err
	}
	if err := s.validateSim(); err != nil {
		return err
	}
	if err := s.validateWorkloads(); err != nil {
		return err
	}
	if err := s.validateEvents(); err != nil {
		return err
	}
	return s.validateAssertions()
}

func (s *Scenario) validateSystem() error {
	sys := s.System
	if !oneOf(sys.Base, BaseStarNUMA, BaseBaseline, BaseSingleSocket) {
		return fieldErr("system.base", "unknown variant %q (want starnuma, baseline or single-socket)", sys.Base)
	}
	hasPool := s.hasPool()
	if sys.Sockets < 0 {
		return fieldErr("system.sockets", "negative count %d", sys.Sockets)
	}
	if sys.SocketsPerChassis < 0 {
		return fieldErr("system.sockets_per_chassis", "negative count %d", sys.SocketsPerChassis)
	}
	if sys.Base == BaseSingleSocket && (sys.Sockets > 1 || sys.SocketsPerChassis > 1) {
		return fieldErr("system.sockets", "base single-socket fixes the shape at one socket")
	}
	if !hasPool {
		switch {
		case !stats.IsZero(sys.PoolCapacityFraction):
			return fieldErr("system.pool_capacity_fraction", "base %q has no pool", sys.Base)
		case sys.PoolChannels != 0:
			return fieldErr("system.pool_channels", "base %q has no pool", sys.Base)
		case sys.PoolLatency != "":
			return fieldErr("system.pool_latency", "base %q has no pool", sys.Base)
		case !stats.IsZero(sys.CXLBandwidthGBps):
			return fieldErr("system.cxl_bandwidth_gbps", "base %q has no pool", sys.Base)
		}
	}
	if sys.PoolCapacityFraction < 0 || sys.PoolCapacityFraction > 1 {
		return fieldErr("system.pool_capacity_fraction", "%v out of (0, 1]", sys.PoolCapacityFraction)
	}
	if sys.PoolChannels < 0 {
		return fieldErr("system.pool_channels", "negative count %d", sys.PoolChannels)
	}
	if !oneOf(sys.PoolLatency, "default", "switched") {
		return fieldErr("system.pool_latency", "unknown budget %q (want default or switched)", sys.PoolLatency)
	}
	if sys.CXLBandwidthGBps < 0 || sys.UPIBandwidthGBps < 0 || sys.NUMABandwidthGBps < 0 {
		return fieldErr("system", "negative link bandwidth override")
	}
	return nil
}

func (s *Scenario) validateSim() error {
	sim := s.Sim
	if !oneOf(sim.Preset, "quick", "default") {
		return fieldErr("sim.preset", "unknown preset %q (want quick or default)", sim.Preset)
	}
	if sim.Phases < 0 {
		return fieldErr("sim.phases", "negative count %d", sim.Phases)
	}
	if sim.Scale < 0 {
		return fieldErr("sim.scale", "negative scale %v", sim.Scale)
	}
	policy := sim.Policy
	if policy == "" {
		policy = "starnuma"
	}
	if _, ok := migrate.LookupPolicy(policy); !ok {
		return fieldErr("sim.policy", "unknown policy %q (registered: %s)",
			sim.Policy, strings.Join(migrate.PolicyNames(), ", "))
	}
	if err := migrate.CheckParams(policy, migrate.Params(sim.PolicyParams)); err != nil {
		return fieldErr("sim.policy_params", "%v", err)
	}
	if !oneOf(sim.Tracker, "t16", "t0") {
		return fieldErr("sim.tracker", "unknown tracker %q (want t16 or t0)", sim.Tracker)
	}
	return nil
}

func (s *Scenario) validateWorkloads() error {
	if len(s.Workloads) == 0 {
		return fieldErr("workloads", "at least one workload placement required")
	}
	known := workload.Names()
	seen := make(map[string]bool, len(s.Workloads))
	for i, w := range s.Workloads {
		field := fmt.Sprintf("workloads[%d]", i)
		found := false
		for _, n := range known {
			if n == w.Name {
				found = true
				break
			}
		}
		if !found {
			return fieldErr(field+".name", "unknown workload %q (suite: %s)", w.Name, strings.Join(known, ", "))
		}
		if seen[w.Name] {
			return fieldErr(field+".name", "workload %q placed twice", w.Name)
		}
		seen[w.Name] = true
		if w.Scale < 0 {
			return fieldErr(field+".scale", "negative scale %v", w.Scale)
		}
		if w.DriftFrac < 0 || w.DriftFrac > 1 {
			return fieldErr(field+".drift_frac", "%v out of [0, 1]", w.DriftFrac)
		}
		if w.DriftPeriod < 0 {
			return fieldErr(field+".drift_period", "negative period %d", w.DriftPeriod)
		}
	}
	return nil
}

// placed reports whether name is one of the scenario's placements.
func (s *Scenario) placed(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// hasPool reports whether the compiled system will have a memory pool.
func (s *Scenario) hasPool() bool {
	return s.System.Base == "" || s.System.Base == BaseStarNUMA
}

// validateEvents checks what the fault package cannot know — that pool
// events have a pool to act on — and then the events as a fault plan.
func (s *Scenario) validateEvents() error {
	for i, e := range s.Events {
		if (e.Kind == fault.Kill || e.Kind == fault.Capacity) && !s.hasPool() {
			return fieldErr(fmt.Sprintf("events[%d]", i), "%s targets the pool, but system.base %q has none", e.Kind, s.System.Base)
		}
	}
	if err := s.faultPlan().Validate(); err != nil {
		return fmt.Errorf("scenario: events: %w", err)
	}
	return nil
}

func (s *Scenario) validateAssertions() error {
	if len(s.Assertions) == 0 {
		return fieldErr("assertions", "at least one assertion required (a scenario is a regression check)")
	}
	for i, a := range s.Assertions {
		field := fmt.Sprintf("assertions[%d]", i)
		if a.Workload != "" && !s.placed(a.Workload) {
			return fieldErr(field+".workload", "%q is not one of the scenario's placements", a.Workload)
		}
		needsOp := a.Kind != KindDrainComplete
		if needsOp {
			ok := false
			for _, op := range validOps {
				if a.Op == op {
					ok = true
					break
				}
			}
			if !ok {
				return fieldErr(field+".op", "got %q, want one of %s", a.Op, strings.Join(validOps, " "))
			}
		}
		switch a.Kind {
		case KindIPC, KindMPKI, KindAMATNs, KindPoolPages:
			if a.Value < 0 {
				return fieldErr(field+".value", "negative threshold %v", a.Value)
			}
		case KindSpeedup:
			if !oneOf(a.Vs, VsNoEvents, VsBaseline) {
				return fieldErr(field+".vs", "unknown reference %q (want no-events or baseline)", a.Vs)
			}
			if a.Value < 0 {
				return fieldErr(field+".value", "negative speedup bound %v", a.Value)
			}
		case KindMetric:
			if a.Metric == "" {
				return fieldErr(field+".metric", "kind metric needs a metric name (e.g. migrate/pages_to_pool)")
			}
		case KindStallFrac:
			if _, ok := attrib.ByName(a.Category); !ok {
				return fieldErr(field+".category", "got %q, want one of %s", a.Category, strings.Join(attrib.Names(), " "))
			}
			if a.Value < 0 || a.Value > 1 {
				return fieldErr(field+".value", "stall fraction %v outside [0,1]", a.Value)
			}
		case KindFaultCounter:
			ok := false
			for _, c := range faultCounters {
				if a.Counter == c {
					ok = true
					break
				}
			}
			if !ok {
				return fieldErr(field+".counter", "got %q, want one of %s", a.Counter, strings.Join(faultCounters, ", "))
			}
		case KindDrainComplete:
			if a.Op != "" || !stats.IsZero(a.Value) {
				return fieldErr(field, "drain_complete takes no op/value")
			}
			if !s.hasPool() {
				return fieldErr(field, "drain_complete needs a pool, but system.base %q has none", s.System.Base)
			}
		case "":
			return fieldErr(field+".kind", "must be set")
		default:
			return fieldErr(field+".kind", "unknown kind %q", a.Kind)
		}
		if a.Metric != "" && a.Kind != KindMetric {
			return fieldErr(field+".metric", "only kind metric takes a metric name")
		}
		if a.Counter != "" && a.Kind != KindFaultCounter {
			return fieldErr(field+".counter", "only kind fault_counter takes a counter name")
		}
		if a.Category != "" && a.Kind != KindStallFrac {
			return fieldErr(field+".category", "only kind stall_frac takes a category name")
		}
		if a.Vs != "" && a.Kind != KindSpeedup {
			return fieldErr(field+".vs", "only kind speedup takes a reference")
		}
	}
	return nil
}

// faultPlan returns the events as the fault plan the scenario run
// carries, or nil when there are none.
func (s *Scenario) faultPlan() *fault.Plan {
	if len(s.Events) == 0 {
		return nil
	}
	return &fault.Plan{Name: s.Name, Events: s.Events}
}
