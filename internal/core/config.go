// Package core assembles the full StarNUMA evaluation system and runs
// the paper's three-step methodology (§IV):
//
//	step A — synthetic workload streams (internal/workload) stand in for
//	         the Pin traces;
//	step B — a trace-only simulation makes per-phase migration decisions
//	         and emits checkpoints (page map + migration list);
//	step C — a discrete-event timing simulation of each checkpoint
//	         measures IPC, AMAT and the access breakdown, which are
//	         aggregated across checkpoints.
//
// Everything in this package is bound by the determinism contract: a
// Result is a pure function of (SystemConfig, SimConfig, workload spec,
// seed). Step-C windows are independent and may run concurrently on
// any worker count, but each must produce bit-identical windowStats
// regardless of scheduling — which is why window state lives in pooled
// scratches that reset to a fresh-built state, why the event queue
// orders ties by sequence number, and why no code here may consult the
// wall clock, environment, or map iteration order (starnumavet
// enforces the mechanical parts).
package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"starnuma/internal/cache"
	"starnuma/internal/fault"
	"starnuma/internal/link"
	"starnuma/internal/memdev"
	"starnuma/internal/migrate"
	"starnuma/internal/pool"
	"starnuma/internal/sim"
	"starnuma/internal/topology"
	"starnuma/internal/tracker"
)

// PolicySpec selects the step-B placement policy by registry name
// (internal/migrate's policy registry) plus optional parameter
// overrides: any registered policy is selectable by name, and its
// descriptor-declared parameters are overridable per run. The zero
// value selects the default StarNUMA policy.
type PolicySpec struct {
	// Name is the registry name ("starnuma", "oracle", ...); empty means
	// "starnuma".
	Name string `json:"name"`
	// Params overrides descriptor-declared parameters by name.
	Params migrate.Params `json:"params"`
}

// Selectors for the built-in policies the experiments name directly.
var (
	// PolicyStarNUMA runs Algorithm 1 over the region tracker.
	PolicyStarNUMA = PolicySpec{Name: "starnuma"}
	// PolicyPerfectBaseline runs the paper's favoured baseline: zero-cost
	// perfect per-page knowledge, migrations between sockets only.
	PolicyPerfectBaseline = PolicySpec{Name: "baseline-perfect"}
	// PolicyNone performs no dynamic migration: pages stay where first
	// touch put them.
	PolicyNone = PolicySpec{Name: "none"}
	// PolicyOracle is §V-B's oracular static placement: every page placed
	// once from whole-run totals, no dynamic migration.
	PolicyOracle = PolicySpec{Name: "oracle"}
)

// CanonicalName resolves the empty name to the default policy.
func (p PolicySpec) CanonicalName() string {
	if p.Name == "" {
		return "starnuma"
	}
	return p.Name
}

// String names the policy (reports, manifests).
func (p PolicySpec) String() string { return p.CanonicalName() }

// Is reports whether the spec selects the named policy.
func (p PolicySpec) Is(name string) bool { return p.CanonicalName() == name }

// Tag returns a short identity string for variant/memo naming: the
// canonical name, suffixed with a content hash of the parameter
// overrides when present.
func (p PolicySpec) Tag() string {
	if len(p.Params) == 0 {
		return p.CanonicalName()
	}
	b, _ := json.Marshal(p.Params) // map[string]float64 cannot fail
	sum := sha256.Sum256(b)
	return p.CanonicalName() + "-" + hex.EncodeToString(sum[:])[:8]
}

// SystemConfig describes the hardware being simulated.
type SystemConfig struct {
	Topology topology.Config

	// Link bandwidths per direction (Table II scaled values).
	UPIBandwidth  link.GBps
	NUMABandwidth link.GBps

	// Pool describes the CXL MHD (bandwidth, latency budget, capacity
	// fraction); only used when Topology.HasPool.
	Pool pool.Config

	// SocketMem and PoolMem size each node's memory subsystem.
	SocketMem memdev.Config
	PoolMem   memdev.Config

	// LLCBytes/LLCWays size the per-socket LLC presence model; a set
	// holds at most cache.MaxWays (16) ways.
	LLCBytes int64
	LLCWays  int

	CoresPerSocket int
	ClockGHz       float64

	// MessageBytes/DataBytes size request and data messages.
	MessageBytes int
	DataBytes    int
}

// BaselineSystem returns the paper's scaled 16-socket baseline
// (Table II): no pool.
func BaselineSystem() SystemConfig {
	topo := topology.DefaultConfig()
	topo.HasPool = false
	return SystemConfig{
		Topology:       topo,
		UPIBandwidth:   3,
		NUMABandwidth:  3,
		Pool:           pool.DefaultConfig(),
		SocketMem:      memdev.DefaultSocketConfig(),
		PoolMem:        memdev.DefaultPoolConfig(),
		LLCBytes:       8 << 20, // 2MB/core x 4 cores
		LLCWays:        16,
		CoresPerSocket: 4,
		ClockGHz:       2.4,
		MessageBytes:   16,
		DataBytes:      72, // 64B line + header
	}
}

// StarNUMASystem returns the baseline augmented with the CXL pool.
func StarNUMASystem() SystemConfig {
	s := BaselineSystem()
	s.Topology.HasPool = true
	s.Topology.CXLOneWay = s.Pool.Latency.OneWay()
	return s
}

// SingleSocketSystem returns a one-socket system (Table III's
// parenthesised IPC column): all memory local, no interconnect.
func SingleSocketSystem() SystemConfig {
	s := BaselineSystem()
	s.Topology.Sockets = 1
	s.Topology.SocketsPerChassis = 1
	return s
}

// Validate reports configuration errors.
func (c SystemConfig) Validate() error {
	if err := c.Topology.Validate(); err != nil {
		return err
	}
	if c.Topology.HasPool {
		if err := c.Pool.Validate(); err != nil {
			return err
		}
	}
	if c.UPIBandwidth < 0 || c.NUMABandwidth < 0 {
		return fmt.Errorf("core: negative link bandwidth")
	}
	if c.LLCBytes <= 0 || c.LLCWays <= 0 || c.LLCWays > cache.MaxWays {
		return fmt.Errorf("core: invalid LLC geometry %d/%d", c.LLCBytes, c.LLCWays)
	}
	if c.CoresPerSocket <= 0 {
		return fmt.Errorf("core: %d cores per socket", c.CoresPerSocket)
	}
	if c.ClockGHz <= 0 {
		return fmt.Errorf("core: clock %v GHz", c.ClockGHz)
	}
	if c.MessageBytes <= 0 || c.DataBytes <= 0 {
		return fmt.Errorf("core: invalid message sizes %d/%d", c.MessageBytes, c.DataBytes)
	}
	return nil
}

// CheckFaults checks a fault plan against this system's hardware: on a
// pooled system every killed pool channel must exist. A pool-less system
// ignores pool events, so it accepts any valid plan.
func (c SystemConfig) CheckFaults(p *fault.Plan) error {
	if !c.Topology.HasPool {
		return nil
	}
	return p.CheckChannels(c.Pool.Channels)
}

// CyclePS returns the core clock period in picoseconds.
func (c SystemConfig) CyclePS() float64 { return 1000 / c.ClockGHz }

// SimConfig describes the methodology parameters (phases, window sizes,
// migration policy).
type SimConfig struct {
	// Phases is the number of 1-phase checkpoints simulated (paper: 5-10).
	Phases int
	// PhaseInstr is the per-core instruction length of a phase in step B
	// (paper: 1B, scaled here).
	PhaseInstr uint64
	// TimedInstr is the per-core instruction budget of each step-C timing
	// window (paper: 100M per 1B phase — 10%).
	TimedInstr uint64
	// WarmupInstr is the per-core warm-up inside each window whose
	// accesses do not count toward statistics (paper: 10-20M).
	WarmupInstr uint64

	// RegionPages is the migration/tracking granularity (paper: 128
	// 4KB pages = 512KB, scaled down with footprints).
	RegionPages int
	// Tracker selects T16 or T0.
	Tracker tracker.Kind
	// Policy selects the page placement policy from internal/migrate's
	// registry, by name plus optional parameter overrides — dynamic
	// migration and static placement (the oracle) alike. Content-hashed
	// into the runner's cache key.
	Policy PolicySpec
	// Migration parameterises Algorithm 1.
	Migration migrate.Config

	// MigrationCostCycles is the per-page cost on the migration-
	// initiating core (hardware-assisted TLB shootdown, §IV-C: 3k
	// cycles).
	MigrationCostCycles sim.Cycles

	// Replication enables the §V-F study: replicate hot, widely-shared,
	// read-mostly pages into every socket instead of (or alongside)
	// pooling them.
	Replication migrate.ReplicationConfig

	// ForceDirectBT ablates Fig. 4's design point: block transfers whose
	// home is the pool are forced onto the direct owner→requester path
	// instead of the (counter-intuitively faster) 4-hop pool path.
	ForceDirectBT bool

	// SoftwareTracking replaces the hardware tracker with conventional
	// OS page-poisoning sampling (§III-D1): only a sampled fraction of
	// regions is monitored per phase, and the first access to each
	// sampled page pays a minor page fault. Used to reproduce the
	// paper's motivation for hardware tracking support.
	SoftwareTracking SoftwareTrackingConfig

	// CollectMetrics enables the instrumentation registry
	// (internal/metrics): scheduler, link, memory, cache, coherence,
	// TLB and migration counters harvested per phase and attached to
	// Result.Metrics. Collection is passive — simulation results are
	// bit-identical with it on or off — but it costs time and memory,
	// so it is off by default.
	CollectMetrics bool

	// Faults is the fault-injection plan (internal/fault): link
	// degradation, CXL port flaps and pool-channel failures scheduled at
	// simulated phases/times. nil (or an empty plan) injects nothing and
	// simulates bit-identically to a fault-free run. The plan is part of
	// the config, so it content-hashes into the runner's cache key.
	Faults *fault.Plan

	// Trace enables the event-trace recorder (internal/evtrace):
	// checkpoint-window spans, migration decisions, TLB-shootdown
	// stalls, sampled coherence transactions and fault-adjusted link
	// sends, assembled into Chrome trace_event JSON by the exp/cmd
	// layer. Recording is passive — results are bit-identical with it
	// on or off — and the field is excluded from JSON so enabling it
	// does not change the runner's content-addressed cache key (cached
	// results carry no trace, so the CLI disables the cache when
	// tracing).
	Trace bool `json:"-"`

	// Attrib enables the stall-attribution ledger (internal/attrib):
	// every recorded demand access's latency is decomposed into integer
	// segments charged per window × socket × category, snapshotted into
	// Result.Profile. Attribution is passive — timing and results are
	// bit-identical with it on or off — and the field is omitted from
	// JSON when false, so attribution-off runs keep their existing
	// content-addressed cache keys while attribution-on runs (whose
	// results carry a profile) hash to distinct keys and cache the
	// profile alongside the rest of the Result.
	Attrib bool `json:",omitempty"`

	// ModelTLB enables the translation subsystem: per-core TLBs, the
	// shared TLB directory for targeted shootdowns (§III-D3), and
	// page-walk penalties for shootdown-invalidated translations.
	ModelTLB bool
	// PageWalkPenalty is the latency charged for a shootdown-induced
	// page walk (§IV-C: "TLB misses trigger page walks").
	PageWalkPenalty sim.Time
}

// SoftwareTrackingConfig parameterises the software sampling study.
type SoftwareTrackingConfig struct {
	Enable bool
	// SampleFrac is the fraction of regions poisoned per phase.
	SampleFrac float64
	// FaultPenaltyCycles is the minor-page-fault cost charged to the
	// faulting core ("several thousand cycles", §III-D3).
	FaultPenaltyCycles sim.Cycles
}

// DefaultSoftwareTracking returns a typical OS sampling configuration:
// 5% of regions per phase at 3000 cycles per minor fault.
func DefaultSoftwareTracking() SoftwareTrackingConfig {
	return SoftwareTrackingConfig{SampleFrac: 0.05, FaultPenaltyCycles: 3000}
}

// DefaultSim returns the default methodology scaling (DESIGN.md §4).
func DefaultSim() SimConfig {
	return SimConfig{
		Phases:              8,
		PhaseInstr:          4_000_000,
		TimedInstr:          400_000,
		WarmupInstr:         40_000,
		RegionPages:         32,
		Tracker:             tracker.T16,
		Policy:              PolicyStarNUMA,
		Migration:           migrate.AutoConfig(),
		MigrationCostCycles: 3000,
		ModelTLB:            true,
		PageWalkPenalty:     100 * sim.Nanosecond,
	}
}

// QuickSim returns a smaller configuration for tests and benches.
func QuickSim() SimConfig {
	c := DefaultSim()
	c.Phases = 4
	c.PhaseInstr = 1_000_000
	c.TimedInstr = 100_000
	c.WarmupInstr = 10_000
	c.Migration.MigrationLimit = 4096
	return c
}

// Validate reports configuration errors.
func (c SimConfig) Validate() error {
	if c.Phases <= 0 {
		return fmt.Errorf("core: %d phases", c.Phases)
	}
	if c.PhaseInstr == 0 || c.TimedInstr == 0 {
		return fmt.Errorf("core: zero-length phase or window")
	}
	if c.TimedInstr > c.PhaseInstr {
		return fmt.Errorf("core: timed window %d exceeds phase %d", c.TimedInstr, c.PhaseInstr)
	}
	if c.WarmupInstr >= c.TimedInstr {
		return fmt.Errorf("core: warmup %d not inside window %d", c.WarmupInstr, c.TimedInstr)
	}
	if c.RegionPages <= 0 {
		return fmt.Errorf("core: region pages %d", c.RegionPages)
	}
	if err := migrate.CheckParams(c.Policy.CanonicalName(), c.Policy.Params); err != nil {
		return fmt.Errorf("core: policy: %w", err)
	}
	if c.MigrationCostCycles < 0 {
		return fmt.Errorf("core: negative migration cost")
	}
	if c.PageWalkPenalty < 0 {
		return fmt.Errorf("core: negative page walk penalty")
	}
	if err := c.Replication.Validate(); err != nil {
		return err
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	if c.SoftwareTracking.Enable {
		if c.SoftwareTracking.SampleFrac <= 0 || c.SoftwareTracking.SampleFrac > 1 {
			return fmt.Errorf("core: software tracking sample fraction %v", c.SoftwareTracking.SampleFrac)
		}
		if c.SoftwareTracking.FaultPenaltyCycles < 0 {
			return fmt.Errorf("core: negative fault penalty")
		}
	}
	return nil
}

// Unassigned marks a page that has not yet been first-touched.
const Unassigned topology.NodeID = -1

// gapTime converts an instruction gap into compute time at the
// workload's zero-load IPC.
func gapTime(gap uint32, ipc0, cyclePS float64) sim.Time {
	return sim.Time(float64(gap)*cyclePS/ipc0 + 0.5)
}
