// Package runner executes the evaluation pipeline as scheduled jobs on
// a bounded worker pool, with a persistent content-addressed result
// cache and live progress reporting.
//
// Work is decomposed at two levels:
//
//   - suite level: one job per workload×config pair (Run / RunAll),
//     and
//   - step-C level: one job per checkpoint timing window, since the
//     windows of one run are independent once step B's checkpoints
//     exist (core.Plan).
//
// Orchestration goroutines are cheap and unbounded; actual simulation
// work acquires a slot from a single semaphore of Jobs entries, so CPU
// parallelism is bounded at both levels by one knob and the two levels
// can never deadlock against each other. Results are bit-identical to
// the sequential core.RunSource path at any worker count: each window
// job replays its phase on a private generator (streams are pure
// functions of (seed, core, phase)) and windows are merged back in
// checkpoint order.
package runner

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"starnuma/internal/core"
	"starnuma/internal/topology"
	"starnuma/internal/workload"
)

// Config parameterises a Runner.
type Config struct {
	// Jobs is the worker-slot count; <=0 means GOMAXPROCS.
	Jobs int
	// CacheDir enables the persistent result cache when non-empty.
	CacheDir string
	// Version overrides the cache schema version (tests); "" means
	// SchemaVersion.
	Version string
	// Reporter observes job progress; nil means silent.
	Reporter Reporter
}

// Metrics is a snapshot of a Runner's lifetime counters.
type Metrics struct {
	RunsStarted int64 // run-level jobs begun (including cache hits)
	RunsDone    int64 // run-level jobs completed
	WindowsDone int64 // step-C window jobs completed, simulated or recalled from core's window memo
	CacheHits   int64 // runs satisfied from the persistent cache
	CacheMisses int64 // runs that had to simulate (cache enabled only)
}

// CacheHitRate returns hits/(hits+misses), 0 when the cache saw no
// traffic.
func (m Metrics) CacheHitRate() float64 {
	total := m.CacheHits + m.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(m.CacheHits) / float64(total)
}

// Runner schedules pipeline executions. It is safe for concurrent use.
type Runner struct {
	jobs  int
	sem   chan struct{}
	cache *resultCache
	rep   Reporter

	runsStarted atomic.Int64
	runsDone    atomic.Int64
	windowsDone atomic.Int64
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
}

// New builds a Runner from cfg.
func New(cfg Config) *Runner {
	jobs := cfg.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	r := &Runner{
		jobs: jobs,
		sem:  make(chan struct{}, jobs),
		rep:  cfg.Reporter,
	}
	if r.rep == nil {
		r.rep = NopReporter{}
	}
	if cfg.CacheDir != "" {
		r.cache = newResultCache(cfg.CacheDir, cfg.Version)
	}
	return r
}

// Jobs returns the worker-slot count.
func (r *Runner) Jobs() int { return r.jobs }

// Metrics returns a snapshot of the runner's counters.
func (r *Runner) Metrics() Metrics {
	return Metrics{
		RunsStarted: r.runsStarted.Load(),
		RunsDone:    r.runsDone.Load(),
		WindowsDone: r.windowsDone.Load(),
		CacheHits:   r.cacheHits.Load(),
		CacheMisses: r.cacheMisses.Load(),
	}
}

func (r *Runner) acquire() { r.sem <- struct{}{} }
func (r *Runner) release() { <-r.sem }

// Job is one suite-level unit of work.
type Job struct {
	// Label names the job in progress output (e.g. "baseline/BFS").
	Label string
	Sys   core.SystemConfig
	Cfg   core.SimConfig
	Spec  workload.Spec
}

// Run executes one workload×config pipeline: persistent-cache lookup,
// then step B under a worker slot, then one window job per checkpoint
// fanned across the pool, merged deterministically.
func (r *Runner) Run(label string, sys core.SystemConfig, cfg core.SimConfig, spec workload.Spec) (*core.Result, error) {
	info := JobInfo{Label: label, Kind: KindRun}
	r.runsStarted.Add(1)
	r.rep.JobStarted(info)
	start := time.Now()

	var key string
	if r.cache != nil {
		k, err := r.cache.key(sys, cfg, spec)
		if err != nil {
			return nil, err
		}
		key = k
		if res, ok := r.cache.load(key); ok {
			r.cacheHits.Add(1)
			r.runsDone.Add(1)
			r.rep.JobDone(info, time.Since(start), true)
			return res, nil
		}
		r.cacheMisses.Add(1)
	}

	res, err := r.compute(label, sys, cfg, spec)
	if err != nil {
		return nil, err
	}
	if r.cache != nil {
		if err := r.cache.store(key, res); err != nil {
			// A read-only cache directory degrades to recomputation;
			// it must not fail the run.
			_ = err
		}
	}
	r.runsDone.Add(1)
	r.rep.JobDone(info, time.Since(start), false)
	return res, nil
}

// compute runs the pipeline with parallel step-C windows.
func (r *Runner) compute(label string, sys core.SystemConfig, cfg core.SimConfig, spec workload.Spec) (*core.Result, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	sockets := topology.New(sys.Topology).Sockets()
	// Generators come from the workload pool: their drift tables and
	// recorded phase streams are expensive to rebuild, and every window
	// of a run draws the identical streams regardless of which pooled
	// instance serves it.
	newGen := func() (*workload.Generator, error) {
		return workload.AcquireGenerator(spec, sockets, sys.CoresPerSocket)
	}

	// Step B occupies one worker slot.
	r.acquire()
	plan, err := func() (*core.Plan, error) {
		gen, err := newGen()
		if err != nil {
			return nil, err
		}
		defer workload.ReleaseGenerator(gen)
		return core.NewPlan(sys, cfg, gen)
	}()
	r.release()
	if err != nil {
		return nil, fmt.Errorf("runner: %s: %w", label, err)
	}

	// Step C: one job per window, each on a private generator so the
	// streams match the sequential replay exactly.
	n := plan.NumWindows()
	windows := make([]core.Window, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r.acquire()
			defer r.release()
			winfo := JobInfo{
				Label: fmt.Sprintf("%s window %d/%d", label, i+1, n),
				Kind:  KindWindow,
			}
			r.rep.JobStarted(winfo)
			t0 := time.Now()
			gen, err := newGen()
			if err != nil {
				errs[i] = err
				return
			}
			windows[i] = plan.RunWindow(i, gen)
			workload.ReleaseGenerator(gen)
			r.windowsDone.Add(1)
			r.rep.JobDone(winfo, time.Since(t0), false)
		}(i)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return nil, fmt.Errorf("runner: %s: %w", label, e)
		}
	}
	return plan.Assemble(windows), nil
}

// RunAll executes jobs concurrently (each internally window-parallel)
// and returns results in input order. The first error wins; remaining
// jobs still run to completion.
func (r *Runner) RunAll(jobs []Job) ([]*core.Result, error) {
	results := make([]*core.Result, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j Job) {
			defer wg.Done()
			results[i], errs[i] = r.Run(j.Label, j.Sys, j.Cfg, j.Spec)
		}(i, j)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	return results, nil
}
