package migrate

import (
	"fmt"

	"starnuma/internal/sim"
)

// cyclesParam reads a cycle-count parameter.
func cyclesParam(p Params, name string, def sim.Cycles) sim.Cycles {
	return sim.Cycles(p.Get(name, float64(def)))
}

// countParam reads a parameter that counts accesses or pages. Parameters
// are outside input, and a negative count converted to an unsigned field
// wraps to an implementation-dependent huge value, so it is rejected.
func countParam(p Params, name string, def float64) (float64, error) {
	v := p.Get(name, def)
	if v < 0 {
		return 0, fmt.Errorf("%s %v is negative", name, v)
	}
	return v, nil
}

// starnumaParams is the Algorithm 1 parameter schema, shared by every
// policy that embeds the StarNUMA scan (epoch-adaptive, bandwidth-aware,
// replication). Defaults of 0 mean "inherit the configured/auto-scaled
// value" (PolicyEnv.BaseMigration → Config.AutoScale).
var starnumaParams = []ParamSpec{
	{Name: "hi_start", Doc: "initial ACCESS_THRES_HI (0 = auto-scale from workload heat)"},
	{Name: "lo_start", Doc: "initial ACCESS_THRES_LO for victim selection (0 = auto)"},
	{Name: "hi_min", Doc: "lower bound of the dynamic HI adjustment (0 = auto)"},
	{Name: "hi_max", Doc: "upper bound of the dynamic HI adjustment (0 = auto)"},
	{Name: "lo_max", Doc: "upper bound of the dynamic LO growth (0 = auto)"},
	{Name: "migration_limit", Doc: "MIGRATION_LIMIT in pages per phase (0 = no migrations; unset = configured default)"},
	{Name: "pool_sharer_threshold", Doc: "sharer sockets at which a region goes to the pool", Default: 8},
	{Name: "seed", Doc: "seed for Algorithm 1's random sharer choices", Default: 1},
	{Name: "disable_pingpong", Doc: "non-0 disables ping-pong suppression (ablation)"},
}

// starnumaConfig resolves the effective Algorithm 1 configuration:
// the configured base knobs (or AutoConfig when the caller passed none),
// overridden by params, auto-scaled from the workload's region heat.
func starnumaConfig(p Params, env PolicyEnv) (Config, error) {
	cfg := env.BaseMigration
	if cfg == (Config{}) {
		cfg = AutoConfig()
	}
	for _, f := range []struct {
		name string
		v    *uint32
	}{
		{"hi_start", &cfg.HiStart}, {"lo_start", &cfg.LoStart},
		{"hi_min", &cfg.HiMin}, {"hi_max", &cfg.HiMax}, {"lo_max", &cfg.LoMax},
	} {
		v, err := countParam(p, f.name, float64(*f.v))
		if err != nil {
			return Config{}, err
		}
		*f.v = uint32(v)
	}
	cfg.MigrationLimit = int(p.Get("migration_limit", float64(cfg.MigrationLimit)))
	cfg.PoolSharerThreshold = int(p.Get("pool_sharer_threshold", float64(cfg.PoolSharerThreshold)))
	cfg.Seed = int64(p.Get("seed", float64(cfg.Seed)))
	if p.Get("disable_pingpong", 0) > 0 {
		cfg.DisablePingPong = true
	}
	return cfg.AutoScale(env.MeanRegionAccessesPerPhase), nil
}

// newStarNUMAScan builds the Algorithm 1 scan shared by the StarNUMA
// family, with factory-grade validation instead of NewStarNUMA's panic.
func newStarNUMAScan(p Params, env PolicyEnv) (*StarNUMA, error) {
	cfg, err := starnumaConfig(p, env)
	if err != nil {
		return nil, err
	}
	if cfg.MigrationLimit < 0 {
		return nil, fmt.Errorf("migration_limit %d is negative", cfg.MigrationLimit)
	}
	if cfg.PoolSharerThreshold < 1 {
		return nil, fmt.Errorf("pool_sharer_threshold %d must be ≥ 1", cfg.PoolSharerThreshold)
	}
	return NewStarNUMA(cfg), nil
}

// The built-in policies, in tournament order. Registration order is the
// order `starnuma policy list` and the policysweep ranking input use.
func init() {
	Register(Descriptor{
		Name:        "starnuma",
		Doc:         "Algorithm 1: threshold-based region migration over the tracker (§III-D2)",
		Params:      starnumaParams,
		UsesTracker: true,
		New: func(p Params, env PolicyEnv) (Policy, error) {
			return newStarNUMAScan(p, env)
		},
	})
	Register(Descriptor{
		Name: "baseline-perfect",
		Doc:  "paper's favoured baseline: zero-cost perfect per-page knowledge, socket-only moves (§IV-C)",
		Params: []ParamSpec{
			{Name: "migration_limit", Doc: "pages moved per phase (0 = no cap)", Default: 8192},
			{Name: "min_accesses", Doc: "per-phase accesses below which a page is ignored", Default: 16},
			{Name: "gain", Doc: "advantage factor the best socket needs over the home", Default: 1.6},
		},
		New: func(p Params, _ PolicyEnv) (Policy, error) {
			limit, err := countParam(p, "migration_limit", 8192)
			if err != nil {
				return nil, err
			}
			pol := NewPerfectBaseline(int(limit))
			minAcc, err := countParam(p, "min_accesses", float64(pol.MinAccesses))
			if err != nil {
				return nil, err
			}
			pol.MinAccesses = uint32(minAcc)
			pol.Gain = p.Get("gain", pol.Gain)
			if pol.Gain < 1 {
				return nil, fmt.Errorf("gain %v must be ≥ 1", pol.Gain)
			}
			return pol, nil
		},
	})
	Register(Descriptor{
		Name: "none",
		Doc:  "no dynamic migration: placement stays wherever first touch put it",
		New: func(Params, PolicyEnv) (Policy, error) {
			return NoMigration{}, nil
		},
	})
	Register(Descriptor{
		Name: "epoch-adaptive",
		Doc:  "Algorithm 1 with feedback control: HI chases a target remote-access fraction per epoch",
		Params: append([]ParamSpec{
			{Name: "target_remote", Doc: "remote-access fraction the controller steers toward", Default: 0.3},
			{Name: "adjust_step", Doc: "multiplicative HI step applied per epoch", Default: 1.5},
		}, starnumaParams...),
		UsesTracker: true,
		New: func(p Params, env PolicyEnv) (Policy, error) {
			inner, err := newStarNUMAScan(p, env)
			if err != nil {
				return nil, err
			}
			target := p.Get("target_remote", 0.3)
			if target < 0 || target > 1 {
				return nil, fmt.Errorf("target_remote %v out of [0, 1]", target)
			}
			step := p.Get("adjust_step", 1.5)
			if step <= 1 {
				return nil, fmt.Errorf("adjust_step %v must be > 1", step)
			}
			return &EpochAdaptive{inner: inner, feedback: env.Feedback,
				targetRemote: target, step: step}, nil
		},
	})
	Register(Descriptor{
		Name: "bandwidth-aware",
		Doc:  "Algorithm 1 that backs off under link saturation: throttled moves, no pool placement past the backoff point",
		Params: append([]ParamSpec{
			{Name: "backoff_x", Doc: "link severity (latency×/bandwidth÷) at which pool placement is suspended", Default: 2},
		}, starnumaParams...),
		UsesTracker: true,
		New: func(p Params, env PolicyEnv) (Policy, error) {
			inner, err := newStarNUMAScan(p, env)
			if err != nil {
				return nil, err
			}
			backoff := p.Get("backoff_x", 2)
			if backoff <= 1 {
				return nil, fmt.Errorf("backoff_x %v must be > 1", backoff)
			}
			return &BandwidthAware{inner: inner, link: env.Link, backoffX: backoff}, nil
		},
	})
	Register(Descriptor{
		Name: "replication",
		Doc:  "Algorithm 1 plus per-phase replication of hot read-mostly vagabond pages (§V-F as a dynamic policy)",
		Params: append([]ParamSpec{
			{Name: "min_sharers", Doc: "sharer sockets a replication candidate needs", Default: 8},
			{Name: "max_write_frac", Doc: "write fraction above which a page is never replicated", Default: 0.05},
			{Name: "capacity_frac", Doc: "replicated-footprint budget as a fraction of all pages", Default: 0.25},
			{Name: "hot_accesses", Doc: "per-phase accesses a replication candidate needs", Default: 64},
			{Name: "write_penalty_cycles", Doc: "software coherence cost charged per store to a replica", Default: 5000},
		}, starnumaParams...),
		UsesTracker: true,
		New: func(p Params, env PolicyEnv) (Policy, error) {
			inner, err := newStarNUMAScan(p, env)
			if err != nil {
				return nil, err
			}
			rc := DefaultReplicationConfig()
			rc.Enable = true
			rc.MinSharers = int(p.Get("min_sharers", float64(rc.MinSharers)))
			rc.MaxWriteFrac = p.Get("max_write_frac", rc.MaxWriteFrac)
			rc.CapacityFrac = p.Get("capacity_frac", rc.CapacityFrac)
			rc.WritePenaltyCycles = cyclesParam(p, "write_penalty_cycles", rc.WritePenaltyCycles)
			if err := rc.Validate(); err != nil {
				return nil, err
			}
			hot := p.Get("hot_accesses", 64)
			if hot < 0 {
				return nil, fmt.Errorf("hot_accesses %v is negative", hot)
			}
			return &ReplicationPolicy{inner: inner, cfg: rc, hot: uint64(hot)}, nil
		},
	})
	Register(Descriptor{
		Name: "oracle",
		Doc:  "zero-cost upper bound: oracular static placement from whole-run totals, no migrations (§V-B)",
		Params: []ParamSpec{
			{Name: "pool_sharer_threshold", Doc: "sharer sockets at which a page may be pooled", Default: 8},
		},
		New: func(p Params, env PolicyEnv) (Policy, error) {
			thr := int(p.Get("pool_sharer_threshold", 8))
			if thr < 1 {
				return nil, fmt.Errorf("pool_sharer_threshold %d must be ≥ 1", thr)
			}
			return &OraclePolicy{cfg: StaticOracleConfig{
				Sockets:             env.Sockets,
				HasPool:             env.HasPool,
				PoolNode:            env.PoolNode,
				PoolCapacityPages:   env.PoolCapacityPages,
				PoolSharerThreshold: thr,
				Seed:                env.WorkloadSeed,
			}}, nil
		},
	})
}
