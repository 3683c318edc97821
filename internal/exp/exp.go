// Package exp reproduces every table and figure of the StarNUMA
// evaluation (§V). Each experiment returns a Table whose rows mirror the
// series the paper reports; `starnuma -exp all` renders the full set and
// EXPERIMENTS.md records paper-vs-measured values.
package exp

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"starnuma/internal/core"
	"starnuma/internal/runner"
	"starnuma/internal/stats"
	"starnuma/internal/workload"
)

// Table is a printable experiment result.
type Table struct {
	ID      string // e.g. "fig8a"
	Title   string
	Columns []string
	Rows    [][]string
	// Notes records the paper's reported values/shape for comparison.
	Notes string
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s", widths[i], cell)
			} else {
				// Ragged row: cells beyond the column count render
				// unpadded rather than panicking.
				b.WriteString(cell)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "paper: %s\n", t.Notes)
	}
	return b.String()
}

// Options configures an experiment run.
type Options struct {
	// Scale multiplies workload footprints (DESIGN.md §4).
	Scale float64
	// Sim is the base methodology configuration; experiments override
	// policy/tracker per variant.
	Sim core.SimConfig
	// Workloads restricts the suite (nil = all eight).
	Workloads []string

	// Jobs is the worker-slot count of the parallel execution runner
	// (0 = GOMAXPROCS).
	Jobs int
	// CacheDir enables the persistent result cache when non-empty
	// (internal/runner; keyed by system+sim+workload content hash).
	CacheDir string
	// Reporter observes job progress; nil = silent.
	Reporter runner.Reporter

	// Trace is the event-trace output path (WriteTrace). Non-empty, it
	// is all a caller sets: NewRunner turns on Sim.Trace, records the
	// wall-clock runner lane after Reporter, and turns the result cache
	// off, since cache hits skip simulation and record no events.
	Trace string
}

// Quick returns bench/test-sized options (minutes for the full suite).
func Quick() Options {
	return Options{Scale: 0.125, Sim: core.QuickSim()}
}

// Default returns the full evaluation options.
func Default() Options {
	return Options{Scale: 0.25, Sim: core.DefaultSim()}
}

// specs resolves the selected workloads.
func (o Options) specs() ([]workload.Spec, error) {
	all := workload.Suite(o.Scale)
	if len(o.Workloads) == 0 {
		return all, nil
	}
	want := map[string]bool{}
	for _, n := range o.Workloads {
		want[n] = true
	}
	var out []workload.Spec
	for _, s := range all {
		if want[s.Name] {
			out = append(out, s)
			delete(want, s.Name)
		}
	}
	if len(want) != 0 {
		var missing []string
		for n := range want {
			missing = append(missing, n)
		}
		sort.Strings(missing)
		return nil, fmt.Errorf("exp: unknown workloads %v", missing)
	}
	return out, nil
}

// Runner memoises simulation results so experiments sharing a
// configuration (e.g. the baseline used by Figs. 8-12) simulate it
// once, and routes execution through internal/runner's parallel
// scheduler: each experiment fetches the (variant, workload) cells it
// reads in one call, run as one wave of suite-level jobs, and each
// job's step-C windows fan out as window-level jobs.
type Runner struct {
	opts Options
	exec *runner.Runner
	// wall records the wall-clock runner lane when opts.Trace is set.
	wall *runner.TraceReporter

	mu   sync.Mutex
	memo map[string]*core.Result
}

// NewRunner creates a runner for the given options.
func NewRunner(opts Options) *Runner {
	r := &Runner{memo: make(map[string]*core.Result)}
	if opts.Trace != "" {
		opts.Sim.Trace = true
		opts.CacheDir = ""
		r.wall = runner.NewTraceReporter()
		if opts.Reporter != nil {
			opts.Reporter = runner.MultiReporter{opts.Reporter, r.wall}
		} else {
			opts.Reporter = r.wall
		}
	}
	r.opts = opts
	r.exec = runner.New(runner.Config{
		Jobs:     opts.Jobs,
		CacheDir: opts.CacheDir,
		Reporter: opts.Reporter,
	})
	return r
}

// Options returns the runner's options.
func (r *Runner) Options() Options { return r.opts }

// Exec returns the underlying execution scheduler (progress metrics).
func (r *Runner) Exec() *runner.Runner { return r.exec }

// memoRun is one memoised simulation under its "variant|workload" key.
type memoRun struct {
	key string
	res *core.Result
}

// memoRuns snapshots the memo sorted by key, so the artifacts built
// from it (manifest, trace) encode identical run sets
// byte-identically.
func (r *Runner) memoRuns() []memoRun {
	r.mu.Lock()
	runs := make([]memoRun, 0, len(r.memo))
	for k, res := range r.memo {
		runs = append(runs, memoRun{k, res})
	}
	r.mu.Unlock()
	sort.Slice(runs, func(i, j int) bool { return runs[i].key < runs[j].key })
	return runs
}

// variant bundles a named (system, methodology) configuration. The name
// doubles as the memo key prefix, so it must uniquely identify sys+cfg.
type variant struct {
	name string
	sys  core.SystemConfig
	cfg  core.SimConfig
}

// cell is one (variant, workload) simulation an experiment reads.
type cell struct {
	v    variant
	spec workload.Spec
}

func (c cell) key() string { return c.v.name + "|" + c.spec.Name }

// results returns the result of every cell in request order. The cells
// not yet memoised run as one wave of suite-level jobs through the
// parallel scheduler, a cell requested twice as one job, so an
// experiment declares everything it reads and fetches it in one call.
func (r *Runner) results(cells []cell) ([]*core.Result, error) {
	var jobs []runner.Job
	var keys []string           // the memo key of each job
	queued := map[string]bool{} // keys already given a job
	r.mu.Lock()
	for _, c := range cells {
		k := c.key()
		if _, ok := r.memo[k]; ok || queued[k] {
			continue
		}
		queued[k] = true
		keys = append(keys, k)
		jobs = append(jobs, runner.Job{
			Label: c.v.name + "/" + c.spec.Name,
			Sys:   c.v.sys, Cfg: c.v.cfg, Spec: c.spec,
		})
	}
	r.mu.Unlock()
	if len(jobs) > 0 {
		ran, err := r.exec.RunAll(jobs)
		if err != nil {
			return nil, fmt.Errorf("exp: %w", err)
		}
		r.mu.Lock()
		for j, k := range keys {
			r.memo[k] = ran[j]
		}
		r.mu.Unlock()
	}
	out := make([]*core.Result, len(cells))
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, c := range cells {
		out[i] = r.memo[c.key()]
	}
	return out, nil
}

// grid fetches every (variant × workload) cell in one call and returns
// g[v][s], variants and specs in argument order.
func (r *Runner) grid(specs []workload.Spec, vs ...variant) ([][]*core.Result, error) {
	cells := make([]cell, 0, len(vs)*len(specs))
	for _, v := range vs {
		for _, spec := range specs {
			cells = append(cells, cell{v, spec})
		}
	}
	flat, err := r.results(cells)
	if err != nil {
		return nil, err
	}
	g := make([][]*core.Result, len(vs))
	for i := range g {
		g[i] = flat[i*len(specs) : (i+1)*len(specs)]
	}
	return g, nil
}

// baselineVariant is the paper's favoured baseline: no pool, perfect
// zero-cost page knowledge.
func (r *Runner) baselineVariant() variant {
	cfg := r.opts.Sim
	cfg.Policy = core.PolicyPerfectBaseline
	return variant{"baseline", core.BaselineSystem(), cfg}
}

// starnumaVariant is the default StarNUMA configuration (T16 tracker).
func (r *Runner) starnumaVariant() variant {
	return pooled("starnuma-t16", core.StarNUMASystem(), r.opts.Sim)
}

// pooled names a StarNUMA-side variant that runs the policy cfg carries
// from Options.Sim.Policy (the -policy flag). The default policy keeps
// the plain name and therefore the historical cache keys; any other
// policy is suffixed "@<tag>" into the name, so the memo key still
// uniquely identifies the configuration.
func pooled(name string, sys core.SystemConfig, cfg core.SimConfig) variant {
	if tag := cfg.Policy.Tag(); tag != "starnuma" {
		name += "@" + tag
	} else {
		cfg.Policy = core.PolicyStarNUMA
	}
	return variant{name, sys, cfg}
}

// gmeanLabels is the label column of a speedup table: one row per
// workload, then the gmean row.
func gmeanLabels(specs []workload.Spec) []string {
	return append(specNames(specs), "gmean")
}

func specNames(specs []workload.Spec) []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

// speedupCol is one "x(num/den) per row, then the gmean row" column.
func speedupCol(num, den []*core.Result) []string {
	vs := make([]float64, len(num))
	out := make([]string, len(num)+1)
	for i := range num {
		vs[i] = core.Speedup(num[i], den[i])
		out[i] = x(vs[i])
	}
	out[len(num)] = x(stats.GeoMean(vs))
	return out
}

// perRow is a column of one formatted cell per result, blank in the
// gmean row.
func perRow(rs []*core.Result, f func(*core.Result) string) []string {
	out := make([]string, len(rs)+1)
	for i, res := range rs {
		out[i] = f(res)
	}
	return out
}

// addColumns appends one row per label, row i taking cols[c][i] as its
// cell c+1. Cells past the last label are dropped, so a label column
// without "gmean" leaves the table without its gmean row.
func (t *Table) addColumns(labels []string, cols ...[]string) {
	for i, l := range labels {
		row := []string{l}
		for _, c := range cols {
			row = append(row, c[i])
		}
		t.Rows = append(t.Rows, row)
	}
}

// formatting helpers

func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
func ns(v float64) string  { return fmt.Sprintf("%.0fns", v) }
func x(v float64) string   { return fmt.Sprintf("%.2fx", v) }
