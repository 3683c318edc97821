package main

import (
	"fmt"
	"math"
	"os"
	"time"

	"starnuma/internal/core"
	"starnuma/internal/runner"
	"starnuma/internal/topology"
	"starnuma/internal/workload"
)

// span is one timed call into a pipeline layer, kept in memory and
// written out when the benchmark ends. Job indexes the batch's job list;
// Window is the checkpoint index of a core.window span and -1 otherwise.
type span struct {
	Name    string  `json:"name"`
	Job     int     `json:"job"`
	Window  int     `json:"window"`
	StartMS float64 `json:"start_ms"`
	DurMS   float64 `json:"dur_ms"`
}

// tracer records spans relative to its creation time.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// do runs fn inside a span.
func (t *tracer) do(name string, job, window int, fn func()) {
	start := time.Now()
	fn()
	t.spans = append(t.spans, span{Name: name, Job: job, Window: window,
		StartMS: ms(start.Sub(t.t0)), DurMS: ms(time.Since(start))})
}

// total sums the named spans' durations, in milliseconds.
func (t *tracer) total(name string) (sumMS float64, n int) {
	for _, s := range t.spans {
		if s.Name == name {
			sumMS += s.DurMS
			n++
		}
	}
	return sumMS, n
}

// durations returns the named spans' durations in milliseconds.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.DurMS)
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// streamKey identifies one recorded stream set: the spec, the system
// shape and the step-B phase budget.
func streamKey(j runner.Job) string {
	return fmt.Sprintf("%+v|%d|%d|%d|%d", j.Spec, topology.New(j.Sys.Topology).Sockets(),
		j.Sys.CoresPerSocket, j.Cfg.PhaseInstr, j.Cfg.Phases)
}

// setup is step A for a batch: it builds each distinct generator and
// records every phase stream the batch will replay, so the timed phase
// starts with warm stream caches as a suite run's later experiments do.
// Each stream set's recording is one workload.record span.
func setup(b *batch, tr *tracer) (accesses int64, err error) {
	seen := map[string]bool{}
	for i, j := range b.jobs {
		k := streamKey(j)
		if seen[k] {
			continue
		}
		seen[k] = true
		tr.do("workload.record", i, -1, func() {
			var n int64
			n, err = record(j)
			accesses += n
		})
		if err != nil {
			return 0, err
		}
	}
	return accesses, nil
}

// record builds one job's generator through the pool and records its
// phase streams at the step-B budget, returning the recorded accesses.
func record(j runner.Job) (int64, error) {
	sockets := topology.New(j.Sys.Topology).Sockets()
	g, err := workload.AcquireGenerator(j.Spec, sockets, j.Sys.CoresPerSocket)
	if err != nil {
		return 0, err
	}
	defer workload.ReleaseGenerator(g)
	g.SetPhaseBudget(j.Cfg.PhaseInstr)
	var n int64
	for p := 0; p < j.Cfg.Phases; p++ {
		g.ResetPhase(p)
		off, _, _, ok := g.ReplayArrays(j.Cfg.PhaseInstr)
		if !ok {
			return 0, fmt.Errorf("%s: phase %d was not recorded", j.Label, p)
		}
		n += int64(off[len(off)-1])
	}
	return n, nil
}

// outcome is one pass over a batch. Window workloads keep a result per
// job. The trace-only workload keeps a plan per job plus one result: its
// pass ends with a single step-C window (the last plan's last
// checkpoint), so every stage is measured on every workload while step B
// stays nearly all of its time. A nil entry is a run that failed.
type outcome struct {
	traceOnly bool
	plans     []*core.Plan
	results   []*core.Result
	windows   int
	misses    uint64
	digests   []string
}

// runUntraced drives the production path: runner.RunAll with one
// simulation slot and no result cache, or core.NewPlan per job for the
// trace-only workload. The caller stops its clock before digest.
func runUntraced(b *batch) *outcome {
	out := &outcome{traceOnly: b.traceOnly}
	if b.traceOnly {
		out.plans = make([]*core.Plan, len(b.jobs))
		for i, j := range b.jobs {
			out.plans[i] = logged(newPlan(j))
		}
		j, p := b.jobs[len(b.jobs)-1], out.plans[len(b.jobs)-1]
		out.results = make([]*core.Result, 1)
		if p != nil {
			w, err := runWindow(j, p, p.NumWindows()-1)
			if logged(p, err) != nil {
				out.results[0] = p.Assemble([]core.Window{w})
				out.windows = 1
			}
		}
		return out
	}
	r := runner.New(runner.Config{Jobs: 1})
	out.results = make([]*core.Result, len(b.jobs))
	if res := logged(r.RunAll(b.jobs)); res != nil {
		out.results = res
	}
	out.windows = int(r.Metrics().WindowsDone)
	return out
}

// digest hashes every run of a finished pass: the trace-only workload's
// plans first, then the results.
func (o *outcome) digest() {
	o.digests = o.digests[:0]
	if o.traceOnly {
		for _, p := range o.plans {
			d := ""
			if p != nil {
				d = planDigest(p)
			}
			o.digests = append(o.digests, d)
		}
	}
	o.misses = 0
	for _, r := range o.results {
		d := ""
		if r != nil && plausible(r) {
			d = resultDigest(r)
			o.misses += r.Misses
		}
		o.digests = append(o.digests, d)
	}
}

// plausible is the correctness check that holds on any seed, where no
// golden digest exists: a run retired instructions, missed, took
// simulated time and produced a finite, positive IPC.
func plausible(r *core.Result) bool {
	return r.Instructions > 0 && r.Misses > 0 && r.SimulatedTime > 0 &&
		r.AMAT.Count() > 0 && r.IPC > 0 && !math.IsInf(r.IPC, 0) && !math.IsNaN(r.IPC)
}

// logged reports err on standard error and returns v, or the zero value
// when err is set; the run then counts as failed.
func logged[T any](v T, err error) T {
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		var zero T
		return zero
	}
	return v
}

// newPlan runs step B for one job on a pooled generator, as the runner
// does.
func newPlan(j runner.Job) (*core.Plan, error) {
	g, err := workload.AcquireGenerator(j.Spec, topology.New(j.Sys.Topology).Sockets(), j.Sys.CoresPerSocket)
	if err != nil {
		return nil, err
	}
	defer workload.ReleaseGenerator(g)
	return core.NewPlan(j.Sys, j.Cfg, g)
}

// runWindow runs one step-C window on a pooled generator, as the
// runner's window jobs do.
func runWindow(j runner.Job, p *core.Plan, w int) (core.Window, error) {
	g, err := workload.AcquireGenerator(j.Spec, topology.New(j.Sys.Topology).Sockets(), j.Sys.CoresPerSocket)
	if err != nil {
		return core.Window{}, err
	}
	defer workload.ReleaseGenerator(g)
	return p.RunWindow(w, g), nil
}

// runTraced replays the batch's job list through core.NewPlan,
// Plan.RunWindow and Plan.Assemble one call at a time, with a span around
// each call (the generator hand-off included, as in the runner). It
// keeps every plan for the component replays.
func runTraced(b *batch, tr *tracer) *outcome {
	out := &outcome{traceOnly: b.traceOnly, plans: make([]*core.Plan, len(b.jobs))}
	last := len(b.jobs) - 1
	for i, j := range b.jobs {
		var p *core.Plan
		tr.do("core.plan", i, -1, func() { p = logged(newPlan(j)) })
		out.plans[i] = p
		if b.traceOnly && i != last {
			continue
		}
		if p == nil {
			out.results = append(out.results, nil)
			continue
		}
		// The trace-only workload's single window is its last checkpoint.
		first := 0
		if b.traceOnly {
			first = p.NumWindows() - 1
		}
		var ws []core.Window
		var err error
		for w := first; w < p.NumWindows() && err == nil; w++ {
			var win core.Window
			tr.do("core.window", i, w, func() { win, err = runWindow(j, p, w) })
			ws = append(ws, win)
		}
		if logged(p, err) == nil {
			out.results = append(out.results, nil)
			continue
		}
		out.windows += len(ws)
		var res *core.Result
		tr.do("core.assemble", i, -1, func() { res = p.Assemble(ws) })
		out.results = append(out.results, res)
	}
	return out
}
