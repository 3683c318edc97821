package exp

import (
	"fmt"

	"starnuma/internal/core"
	"starnuma/internal/scenario"
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
	vs := []variant{{tag, c.Sys, c.Cfg}}
	if c.NeedsRef {
		vs = append(vs, variant{tag + "/ref", c.Sys, c.RefCfg})
	}
	if c.NeedsBase {
		vs = append(vs, variant{tag + "/base", c.BaseSys, c.BaseCfg})
	}
	g, err := r.grid(c.Specs, vs...)
	if err != nil {
		return nil, fmt.Errorf("exp: scenario %s: %w", c.Name(), err)
	}
	byName := func(row []*core.Result) map[string]*core.Result {
		out := make(map[string]*core.Result, len(c.Specs))
		for i, spec := range c.Specs {
			out[spec.Name] = row[i]
		}
		return out
	}
	// The variants run in order main, ref, base; base is last when present.
	rs := scenario.RunSet{Results: byName(g[0])}
	if c.NeedsRef {
		rs.Ref = byName(g[1])
	}
	if c.NeedsBase {
		rs.Base = byName(g[len(g)-1])
	}
	return c.Evaluate(rs)
}

func shortHash(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}
