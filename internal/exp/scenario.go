package exp

import (
	"fmt"

	"starnuma/internal/core"
	"starnuma/internal/scenario"
	"starnuma/internal/workload"
)

// RunScenario executes one compiled scenario through the runner and
// evaluates its assertions. The scenario run, its no-events reference
// and the pool-less baseline (the latter two only when the scenario's
// assertions need them) fan out as one wave of parallel jobs, and every
// simulation rides the runner's content-addressed result cache — the
// scenario's simulation-relevant content reaches the cache key through
// the compiled configurations. The verdict is a pure function of the
// scenario and the (deterministic) results, so it is byte-identical
// across reruns and worker counts.
func (r *Runner) RunScenario(c *scenario.Compiled) (*scenario.Verdict, error) {
	tag := "scenario/" + c.Name() + "@" + shortHash(c.Hash)
	main := variant{tag, c.Sys, c.Cfg}
	ref := variant{tag + "/ref", c.Sys, c.RefCfg}
	base := variant{tag + "/base", c.BaseSys, c.BaseCfg}

	var cells []cell
	add := func(v variant, specs []workload.Spec) {
		for _, spec := range specs {
			cells = append(cells, cell{v, spec})
		}
	}
	// The scenario run proper drifts while its references do not, so
	// the main cells and the reference cells run different spec lists.
	add(main, c.Specs)
	if c.NeedsRef {
		add(ref, c.RefSpecs)
	}
	if c.NeedsBase {
		add(base, c.RefSpecs)
	}
	res, err := r.results(cells)
	if err != nil {
		return nil, fmt.Errorf("exp: scenario %s: %w", c.Name(), err)
	}
	// take maps the next len(specs) results by workload name.
	take := func(specs []workload.Spec) map[string]*core.Result {
		out := make(map[string]*core.Result, len(specs))
		for _, spec := range specs {
			out[spec.Name], res = res[0], res[1:]
		}
		return out
	}
	rs := scenario.RunSet{Results: take(c.Specs)}
	if c.NeedsRef {
		rs.Ref = take(c.RefSpecs)
	}
	if c.NeedsBase {
		rs.Base = take(c.RefSpecs)
	}
	return c.Evaluate(rs)
}

func shortHash(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}
