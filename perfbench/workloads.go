package main

import (
	"fmt"

	"starnuma/internal/core"
	"starnuma/internal/fault"
	"starnuma/internal/migrate"
	"starnuma/internal/pool"
	"starnuma/internal/runner"
	"starnuma/internal/tracker"
	"starnuma/internal/workload"
)

// benchScale is the suite footprint scale of every workload (the quick
// suite's scale).
const benchScale = 0.125

// batch is one benchmark workload: a fixed, closed list of pipeline runs.
// A traceOnly batch runs step B (core.NewPlan) for every job and step C
// for one window only (see outcome).
type batch struct {
	name      string
	jobs      []runner.Job
	traceOnly bool
	// replayCap bounds the accesses each component replay takes from a
	// recorded stream, so a replay costs about the same whatever the
	// stream's length.
	replayCap int
}

// workloadNames lists the benchmark workloads in the order they are
// documented.
var workloadNames = []string{"paper16", "sweep-masstree", "scale32", "stepb-grid"}

// buildBatch returns the named workload's job list. A non-zero seed is
// XORed into every workload and migration seed, so the batch runs the
// same grid on held-out inputs. tiny shrinks every run to the smallest
// footprint, one phase and a tenth of the instructions, for the smoke
// test.
func buildBatch(name string, seed uint64, tiny bool) (*batch, error) {
	scale := benchScale
	sim := core.QuickSim()
	if tiny {
		scale = 0.01
		sim.Phases = 1
		sim.PhaseInstr /= 10
		sim.TimedInstr /= 10
		sim.WarmupInstr /= 10
	}
	specs := func(names ...string) []workload.Spec {
		all := workload.Suite(scale)
		if len(names) == 0 {
			return all
		}
		var out []workload.Spec
		for _, s := range all {
			for _, n := range names {
				if s.Name == n {
					out = append(out, s)
				}
			}
		}
		return out
	}
	b := &batch{name: name, replayCap: 1 << 17}
	if tiny {
		b.replayCap = 1 << 12
	}
	add := func(label string, sys core.SystemConfig, cfg core.SimConfig, ss []workload.Spec) {
		for _, s := range ss {
			b.jobs = append(b.jobs, runner.Job{Label: label + "/" + s.Name, Sys: sys, Cfg: cfg, Spec: s})
		}
	}
	baseCfg := sim
	baseCfg.Policy = core.PolicyPerfectBaseline
	snCfg := sim
	snCfg.Policy = core.PolicyStarNUMA

	switch name {
	case "paper16":
		// Fig. 8a's grid: the favoured baseline and StarNUMA-T16 over the
		// whole suite at 16 sockets.
		all := specs()
		add("baseline", core.BaselineSystem(), baseCfg, all)
		add("starnuma-t16", core.StarNUMASystem(), snCfg, all)
	case "sweep-masstree":
		// policysweep's grid on one stream: every registered policy under
		// each sweep fault plan, plus the baseline anchor.
		mt := specs("Masstree")
		add("baseline", core.BaselineSystem(), baseCfg, mt)
		plans := []struct {
			name string
			plan *fault.Plan
		}{{"none", nil}, {"flap", fault.FlapPlan()}, {"degrade", fault.DegradePlan(4)}}
		for _, d := range migrate.Policies() {
			for _, pl := range plans {
				cfg := sim
				cfg.Policy = core.PolicySpec{Name: d.Name}
				cfg.Faults = pl.plan
				add("psweep-"+d.Name+"-"+pl.name, core.StarNUMASystem(), cfg, mt)
			}
		}
	case "scale32":
		// ext32's 32-socket pair: switched CXL latency and Algorithm 1's
		// half-the-system sharer threshold.
		ss := specs("BFS", "Masstree", "TPCC", "FMI")
		base32 := core.BaselineSystem()
		base32.Topology.Sockets = 32
		sn32 := core.StarNUMASystem()
		sn32.Topology.Sockets = 32
		sn32.Pool.Latency = pool.SwitchedLatency()
		sn32.Topology.CXLOneWay = sn32.Pool.Latency.OneWay()
		cfg32 := snCfg
		cfg32.Migration.PoolSharerThreshold = 16
		add("baseline-32", base32, baseCfg, ss)
		add("starnuma-32", sn32, cfg32, ss)
	case "stepb-grid":
		// Trace-only step B over tracker designs and region sizes: every
		// plan has its own ingest-memo key, so each one ingests in full.
		b.traceOnly = true
		ss := specs("SSSP", "BFS", "CC", "Masstree", "POA")
		for _, kind := range []tracker.Kind{tracker.T16, tracker.T0} {
			for _, rp := range []int{8, 32, 128} {
				cfg := snCfg
				cfg.Tracker = kind
				cfg.RegionPages = rp
				add(fmt.Sprintf("%s-r%d", kind, rp), core.StarNUMASystem(), cfg, ss)
			}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	if seed != 0 {
		for i := range b.jobs {
			b.jobs[i].Spec.Seed ^= seed
			b.jobs[i].Cfg.Migration.Seed ^= int64(seed)
		}
	}
	return b, nil
}
