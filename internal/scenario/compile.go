package scenario

import (
	"fmt"

	"starnuma/internal/core"
	"starnuma/internal/link"
	"starnuma/internal/migrate"
	"starnuma/internal/pool"
	"starnuma/internal/stats"
	"starnuma/internal/tracker"
	"starnuma/internal/workload"
)

// Compiled is a scenario lowered onto the existing simulation machinery:
// system and methodology configurations (with the events as Cfg.Faults),
// the placed workload specs, and the reference configurations speedup
// assertions compare against. The references run the same specs, so
// each differs from the scenario run only in its configurations. All of
// it is plain config data — the runner's content-addressed cache keys on
// it, so scenario runs ride the cache like every other experiment.
type Compiled struct {
	// Scenario is the validated source document.
	Scenario *Scenario
	// Hash is the scenario's content hash (Scenario.Hash).
	Hash string

	// Sys/Cfg/Specs is the scenario run proper.
	Sys   core.SystemConfig
	Cfg   core.SimConfig
	Specs []workload.Spec

	// RefCfg is the "no-events" reference: Cfg without the fault plan,
	// run on Sys over Specs. Only meaningful when NeedsRef.
	RefCfg   core.SimConfig
	NeedsRef bool

	// BaseSys/BaseCfg is the paper's pool-less perfect baseline for
	// "vs baseline" speedups, run over Specs. Only meaningful when
	// NeedsBase.
	BaseSys   core.SystemConfig
	BaseCfg   core.SimConfig
	NeedsBase bool
}

// Name returns the scenario name.
func (c *Compiled) Name() string { return c.Scenario.Name }

// Compile validates the scenario and lowers it onto core/fault/workload
// configuration. The result is a pure function of the scenario document:
// compiling the same scenario twice yields identical configurations.
func Compile(s *Scenario) (*Compiled, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	c := &Compiled{Scenario: s, Hash: s.Hash()}

	if err := c.compileSystem(); err != nil {
		return nil, err
	}
	c.compileSim()
	if err := c.compileWorkloads(); err != nil {
		return nil, err
	}

	// Final cross-checks with the full configurations in hand.
	if err := c.Sys.Validate(); err != nil {
		return nil, fmt.Errorf("scenario: system: %w", err)
	}
	if err := c.Cfg.Validate(); err != nil {
		return nil, fmt.Errorf("scenario: sim: %w", err)
	}
	if err := c.Sys.CheckFaults(c.Cfg.Faults); err != nil {
		return nil, fmt.Errorf("scenario: events: %w", err)
	}
	// Specs are authored for 16 sockets; smaller systems clamp sharer
	// sets at generation time (workload.NewGenerator), so validate
	// against the clamp floor like the generator does.
	sockets := c.Sys.Topology.Sockets
	if sockets < 16 {
		sockets = 16
	}
	for _, spec := range c.Specs {
		if err := spec.Validate(sockets); err != nil {
			return nil, fmt.Errorf("scenario: workloads: %w", err)
		}
	}
	return c, nil
}

func (c *Compiled) compileSystem() error {
	s := c.Scenario
	switch s.System.Base {
	case BaseStarNUMA, "":
		c.Sys = core.StarNUMASystem()
	case BaseBaseline:
		c.Sys = core.BaselineSystem()
	case BaseSingleSocket:
		c.Sys = core.SingleSocketSystem()
	default:
		return fieldErr("system.base", "unknown variant %q", s.System.Base)
	}
	sys := &c.Sys
	if s.System.SocketsPerChassis > 0 {
		sys.Topology.SocketsPerChassis = s.System.SocketsPerChassis
	}
	if s.System.Sockets > 0 {
		sys.Topology.Sockets = s.System.Sockets
	}
	if s.System.PoolCapacityFraction > 0 {
		sys.Pool.CapacityFraction = s.System.PoolCapacityFraction
	}
	if s.System.PoolChannels > 0 {
		sys.Pool.Channels = s.System.PoolChannels
	}
	if s.System.PoolLatency == "switched" {
		sys.Pool.Latency = pool.SwitchedLatency()
	}
	if s.System.CXLBandwidthGBps > 0 {
		sys.Pool.LinkBW = link.GBps(s.System.CXLBandwidthGBps)
	}
	if s.System.UPIBandwidthGBps > 0 {
		sys.UPIBandwidth = link.GBps(s.System.UPIBandwidthGBps)
	}
	if s.System.NUMABandwidthGBps > 0 {
		sys.NUMABandwidth = link.GBps(s.System.NUMABandwidthGBps)
	}
	if sys.Topology.HasPool {
		// Keep the CXL one-way latency consistent with the (possibly
		// overridden) pool budget, as core.StarNUMASystem does.
		sys.Topology.CXLOneWay = sys.Pool.Latency.OneWay()
	}
	// The paper baseline for "vs baseline" speedups shares the
	// scenario's topology shape but has no pool. A single-socket
	// scenario compares against the paper's full baseline machine.
	c.BaseSys = core.BaselineSystem()
	if s.System.Base != BaseSingleSocket {
		c.BaseSys.Topology.Sockets = sys.Topology.Sockets
		c.BaseSys.Topology.SocketsPerChassis = sys.Topology.SocketsPerChassis
	}
	return nil
}

func (c *Compiled) compileSim() {
	s := c.Scenario
	cfg := core.QuickSim()
	if s.Sim.Preset == "default" {
		cfg = core.DefaultSim()
	}
	if s.Sim.Phases > 0 {
		cfg.Phases = s.Sim.Phases
	}
	// The named policy comes straight from the migrate registry
	// (Validate already checked name and parameter keys).
	if s.Sim.Policy != "" || len(s.Sim.PolicyParams) > 0 {
		cfg.Policy = core.PolicySpec{Name: s.Sim.Policy, Params: migrate.Params(s.Sim.PolicyParams)}
		if cfg.Policy.Name == "" {
			cfg.Policy.Name = "starnuma"
		}
	}
	if s.Sim.Tracker == "t0" {
		cfg.Tracker = tracker.T0
	} else {
		cfg.Tracker = tracker.T16
	}
	// Metric and stall-fraction assertions read the instrumentation
	// snapshot and the attribution profile, so their presence turns
	// instrumentation on (it is passive: results stay bit-identical,
	// and the flag is part of the cache key).
	for _, a := range s.Assertions {
		if a.Kind == KindMetric || a.Kind == KindStallFrac {
			cfg.Instrument = true
			break
		}
	}

	c.RefCfg = cfg // the no-events reference: same methodology, no plan
	c.Cfg = cfg
	c.Cfg.Faults = s.faultPlan()

	c.BaseCfg = c.RefCfg
	c.BaseCfg.Policy = core.PolicyPerfectBaseline

	for _, a := range s.Assertions {
		if a.Kind != KindSpeedup {
			continue
		}
		if a.Vs == VsBaseline {
			c.NeedsBase = true
		} else {
			c.NeedsRef = true
		}
	}
}

func (c *Compiled) compileWorkloads() error {
	s := c.Scenario
	scale := s.Sim.Scale
	if stats.IsZero(scale) {
		if s.Sim.Preset == "default" {
			scale = 0.25
		} else {
			scale = 0.125
		}
	}
	for _, w := range s.Workloads {
		ws := scale
		if w.Scale > 0 {
			ws = w.Scale
		}
		spec, err := workload.ByName(w.Name, ws)
		if err != nil {
			return fmt.Errorf("scenario: workloads: %w", err)
		}
		if w.Seed != 0 {
			spec.Seed = w.Seed
		}
		spec.DriftFrac, spec.DriftPeriod = w.DriftFrac, w.DriftPeriod
		c.Specs = append(c.Specs, spec)
	}
	return nil
}
