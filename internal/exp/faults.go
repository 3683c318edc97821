package exp

import (
	"fmt"

	"starnuma/internal/core"
	"starnuma/internal/fault"
)

// faultScenario is one canned fault plan under its variant-name suffix.
type faultScenario struct {
	name string
	plan *fault.Plan
}

// faultScenarios are the canned degraded-mode plans the sweep compares,
// in increasing severity. The fault-free scenario anchors the ratios.
func faultScenarios() []faultScenario {
	return []faultScenario{
		{"none", nil},
		{"flap", fault.FlapPlan()},
		{"degrade", fault.DegradePlan(4)},
		{"deadch", fault.DeadChannelPlan(0)},
		{"deadpool", fault.DeadPoolPlan()},
	}
}

// survivablePlans counts faultScenarios' leading plans that kill no
// hardware: none, flap and degrade.
const survivablePlans = 3

// FaultSweep runs the StarNUMA configuration under the canned fault
// plans — none, transient CXL flaps, a 4× CXL degradation, one dead
// pool DDR channel, and a dead MHD — and reports each scenario's IPC
// relative to the fault-free run, plus the graceful-degradation
// evidence: pages drained off the dying pool and sends delayed by
// flapping links. The paper's robustness claim (§VI: RAS and
// availability are first-order for a shared pool) has no figure to
// mirror; this sweep is the reproduction's extension of it.
func (r *Runner) FaultSweep() (*Table, error) {
	specs, err := r.opts.specs()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "faultsweep",
		Title: "Extension: StarNUMA under CXL fabric faults (degraded mode)",
		Columns: []string{"workload", "fault-free IPC", "flap", "degrade 4x",
			"dead channel", "dead pool", "drained pages", "flap retries"},
		Notes: "extension (§VI RAS): flaps/degradation shave the pool benefit; a dead DDR channel halves pool capacity and drains the overflow; a dead MHD drains everything and falls back to socket-only (StarNUMA-Halt) migration — every scenario completes, none panics",
	}
	var vs []variant
	for _, sc := range faultScenarios() {
		cfg := r.opts.Sim
		cfg.Faults = sc.plan
		vs = append(vs, pooled("faults-"+sc.name, core.StarNUMASystem(), cfg))
	}
	g, err := r.grid(specs, vs...)
	if err != nil {
		return nil, err
	}
	cols := [][]string{perRow(g[0], func(res *core.Result) string { return f3(res.IPC) })}
	for _, faulted := range g[1:] {
		cols = append(cols, speedupCol(faulted, g[0]))
	}
	// g[1] is the flap scenario, the last one the dead pool.
	cols = append(cols,
		perRow(g[len(g)-1], func(res *core.Result) string { return fmt.Sprint(res.FaultDrainedPages) }),
		perRow(g[1], func(res *core.Result) string { return fmt.Sprint(res.FaultFlapRetries) }))
	t.addColumns(gmeanLabels(specs), cols...)
	return t, nil
}
