// Package detclock forbids wall-clock and environment reads inside the
// simulation packages.
//
// The result cache keys every simulation by (system, sim config,
// workload spec, schema version) and nothing else, so any influence of
// time.Now, a timer, or an environment variable on a simulation result
// silently poisons the cache and breaks bit-reproducibility. The clock
// belongs to the orchestration layer (internal/runner, internal/exp,
// cmd/...), which is outside analysis.SimPackages, the analyzer's scope.
package detclock

import (
	"go/ast"
	"go/types"
	"slices"

	"starnuma/internal/lint/analysis"
)

// forbidden maps package path -> function names whose call (or mere
// mention: passing time.Now as a value is just as nondeterministic)
// is rejected inside the scoped packages.
var forbidden = map[string]map[string]string{
	"time": {
		"Now":       "reads the wall clock",
		"Since":     "reads the wall clock",
		"Until":     "reads the wall clock",
		"Sleep":     "depends on real time",
		"Tick":      "depends on real time",
		"After":     "depends on real time",
		"AfterFunc": "depends on real time",
		"NewTimer":  "depends on real time",
		"NewTicker": "depends on real time",
	},
	"os": {
		"Getenv":    "reads the environment",
		"LookupEnv": "reads the environment",
		"Environ":   "reads the environment",
	},
}

// Analyzer is the detclock pass.
var Analyzer = &analysis.Analyzer{
	Name: "detclock",
	Doc: "forbid wall-clock and environment reads in simulation packages\n\n" +
		"Simulation results are content-addressed by their configuration; any\n" +
		"dependence on real time or the environment breaks the determinism\n" +
		"contract. Use sim.Engine's virtual clock, or plumb the value through\n" +
		"an explicit config field.",
	Run: run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !slices.Contains(analysis.SimPackages, pass.Pkg.Path()) {
		return nil, nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				return true // methods (e.g. on a time.Duration value) are not ambient reads
			}
			if why, bad := forbidden[fn.Pkg().Path()][fn.Name()]; bad {
				pass.Reportf(id.Pos(), "%s.%s %s; simulation package %s must be a pure function of its config (use the sim.Engine clock or a config field)",
					fn.Pkg().Path(), fn.Name(), why, pass.Pkg.Path())
			}
			return true
		})
	}
	return nil, nil
}
