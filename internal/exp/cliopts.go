package exp

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"starnuma/internal/core"
	"starnuma/internal/fault"
	"starnuma/internal/migrate"
	"starnuma/internal/runner"
)

// CLIFlags holds the run-shaping flags of cmd/starnuma's experiment
// interface: AddCLIFlags registers them and CLIFlags.Options
// materialises them into experiment Options.
type CLIFlags struct {
	Quick     bool
	Scale     float64
	Phases    int
	Workloads string
	Jobs      int
	CacheDir  string
	NoCache   bool
	Progress  bool
	// Metrics is the run-manifest output path; non-empty turns on
	// core.SimConfig.Instrument, so every run in the manifest carries
	// its metrics and stall profile (read by `starnuma metrics` and
	// `starnuma prof`).
	Metrics string
	// Faults is a fault-plan JSON file; non-empty loads it into
	// core.SimConfig.Faults so every experiment runs under the plan.
	Faults string
	// Policy selects the StarNUMA-side migration policy by registry name,
	// optionally with parameter overrides: "name" or "name:{json-params}"
	// (e.g. `starnuma:{"hi_start":64}`). Empty keeps the default.
	Policy string
	// Trace is the event-trace output path, copied to Options.Trace;
	// non-empty, NewRunner enables core.SimConfig.Trace, records the
	// wall-clock runner lane, and disables the result cache (cache hits
	// produce no events).
	Trace string
}

// AddCLIFlags registers the shared run-shaping flags on fs and returns
// the struct their parsed values land in.
func AddCLIFlags(fs *flag.FlagSet) *CLIFlags {
	f := &CLIFlags{}
	fs.BoolVar(&f.Quick, "quick", false, "use the quick (small) configuration")
	fs.Float64Var(&f.Scale, "scale", 0, "override workload footprint scale")
	fs.IntVar(&f.Phases, "phases", 0, "override number of phases")
	fs.StringVar(&f.Workloads, "workloads", "", "comma-separated workload subset (default: all)")
	fs.IntVar(&f.Jobs, "jobs", 0, "parallel worker slots (0 = GOMAXPROCS)")
	fs.StringVar(&f.CacheDir, "cache", runner.DefaultCacheDir, "result cache directory")
	fs.BoolVar(&f.NoCache, "nocache", false, "disable the persistent result cache")
	fs.BoolVar(&f.Progress, "progress", false, "report job progress on stderr")
	fs.StringVar(&f.Metrics, "metrics", "", "collect metrics and stall profiles and write a run manifest to this JSON file (see: starnuma metrics, starnuma prof)")
	fs.StringVar(&f.Faults, "faults", "", "run under the fault-injection plan in this JSON file (internal/fault)")
	fs.StringVar(&f.Policy, "policy", "", `migration policy as "name" or "name:{json-params}" (see: starnuma policy list)`)
	fs.StringVar(&f.Trace, "trace", "", "record an event trace (Perfetto/chrome://tracing JSON) to this file; disables the result cache")
	return f
}

// Options materialises parsed flags into experiment options. progressW
// receives the progress reporter's output when -progress is set
// (typically os.Stderr). It fails on a negative -scale or -phases (0
// keeps the preset) and when -faults names an unreadable or invalid
// plan file.
func (f *CLIFlags) Options(progressW io.Writer) (Options, error) {
	if f.Scale < 0 || f.Phases < 0 {
		return Options{}, fmt.Errorf("exp: negative -scale %g or -phases %d (0 keeps the preset)", f.Scale, f.Phases)
	}
	opts := Default()
	if f.Quick {
		opts = Quick()
	}
	if f.Scale > 0 {
		opts.Scale = f.Scale
	}
	if f.Phases > 0 {
		opts.Sim.Phases = f.Phases
	}
	if f.Workloads != "" {
		opts.Workloads = strings.Split(f.Workloads, ",")
	}
	opts.Jobs = f.Jobs
	if !f.NoCache {
		opts.CacheDir = f.CacheDir
	}
	if f.Progress && progressW != nil {
		opts.Reporter = runner.NewTerminalReporter(progressW)
	}
	opts.Sim.Instrument = f.Metrics != ""
	opts.Trace = f.Trace
	if f.Faults != "" {
		data, err := os.ReadFile(f.Faults)
		if err != nil {
			return Options{}, fmt.Errorf("exp: -faults: %w", err)
		}
		plan, err := fault.ParsePlan(data)
		if err != nil {
			return Options{}, fmt.Errorf("exp: -faults %s: %w", f.Faults, err)
		}
		opts.Sim.Faults = plan
	}
	if f.Policy != "" {
		spec, err := ParsePolicyArg(f.Policy)
		if err != nil {
			return Options{}, err
		}
		opts.Sim.Policy = spec
	}
	return opts, nil
}

// WriteOutputs writes the run artifacts the flags ask for once r has
// run its experiments: the -metrics manifest and the -trace timeline.
func (f *CLIFlags) WriteOutputs(r *Runner) error {
	if f.Metrics != "" {
		if err := r.WriteManifest(f.Metrics); err != nil {
			return err
		}
	}
	return r.WriteTrace()
}

// ParsePolicyArg parses a -policy value: a registry name, optionally
// followed by ":" and a JSON object of parameter overrides. The name and
// parameter keys are validated against the migrate registry, so typos
// fail here with the accepted spellings rather than deep inside a run.
func ParsePolicyArg(arg string) (core.PolicySpec, error) {
	name, rest, hasParams := strings.Cut(arg, ":")
	spec := core.PolicySpec{Name: name}
	if hasParams {
		if err := json.Unmarshal([]byte(rest), &spec.Params); err != nil {
			return core.PolicySpec{}, fmt.Errorf("exp: -policy %s: params: %w", name, err)
		}
	}
	if err := migrate.CheckParams(spec.CanonicalName(), spec.Params); err != nil {
		return core.PolicySpec{}, fmt.Errorf("exp: -policy: %w", err)
	}
	return spec, nil
}
