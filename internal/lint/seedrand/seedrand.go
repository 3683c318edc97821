// Package seedrand forbids ambient randomness inside the simulation
// packages.
//
// Two shapes are rejected: the global math/rand (and math/rand/v2)
// top-level functions, whose shared source makes results depend on
// everything else that drew from it; and rand.NewSource / rand.NewPCG
// with hard-coded constant seeds, which hide the seed from the cache
// key. Every RNG must be constructed from an explicit config seed, as
// migrate's policies do (rand.New(rand.NewSource(cfg.Seed))).
package seedrand

import (
	"go/ast"
	"go/types"
	"slices"

	"starnuma/internal/lint/analysis"
)

// globalFns are the top-level convenience functions that draw from the
// package-global source (both math/rand and math/rand/v2 spellings).
var globalFns = map[string]bool{
	"Int": true, "Intn": true, "IntN": true, "N": true,
	"Int31": true, "Int31n": true, "Int32": true, "Int32N": true,
	"Int63": true, "Int63n": true, "Int64": true, "Int64N": true,
	"Uint": true, "Uint32": true, "Uint32N": true,
	"Uint64": true, "Uint64N": true, "UintN": true,
	"Float32": true, "Float64": true,
	"ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true, "Seed": true,
}

// constructors whose all-constant arguments indicate a hard-coded seed.
var seedCtors = map[string]bool{"NewSource": true, "NewPCG": true, "NewChaCha8": true}

func isRandPkg(path string) bool { return path == "math/rand" || path == "math/rand/v2" }

// Analyzer is the seedrand pass.
var Analyzer = &analysis.Analyzer{
	Name: "seedrand",
	Doc: "require explicitly-seeded RNGs in simulation packages\n\n" +
		"Global math/rand functions share one ambient source, and literal\n" +
		"seeds bypass the config that forms the result-cache key. Construct\n" +
		"RNGs as rand.New(rand.NewSource(cfg.Seed)).",
	Run: run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !slices.Contains(analysis.SimPackages, pass.Pkg.Path()) {
		return nil, nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				fn, ok := pass.TypesInfo.Uses[n].(*types.Func)
				if !ok || fn.Pkg() == nil || !isRandPkg(fn.Pkg().Path()) {
					return true
				}
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
					return true // a method on an explicit *rand.Rand is fine
				}
				if globalFns[fn.Name()] {
					pass.Reportf(n.Pos(), "%s.%s draws from the process-global source; construct an RNG from an explicit config seed (rand.New(rand.NewSource(cfg.Seed)))",
						fn.Pkg().Path(), fn.Name())
				}
			case *ast.CallExpr:
				fn := calleeFunc(pass, n)
				if fn == nil || fn.Pkg() == nil || !isRandPkg(fn.Pkg().Path()) || !seedCtors[fn.Name()] {
					return true
				}
				if len(n.Args) == 0 {
					return true
				}
				for _, arg := range n.Args {
					if pass.TypesInfo.Types[arg].Value == nil {
						return true // at least one non-constant argument: seed flows in
					}
				}
				pass.Reportf(n.Pos(), "%s.%s with a hard-coded seed hides the seed from the result-cache key; take it from the config",
					fn.Pkg().Path(), fn.Name())
			}
			return true
		})
	}
	return nil, nil
}

// calleeFunc resolves the called function object, if the callee is a
// plain identifier or selector.
func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}
