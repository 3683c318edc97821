// Package floatdet forbids exact equality comparison of floating-point
// values inside the simulation packages.
//
// The bit-identity contract makes float results reproducible, but `==`
// on floats is still a trap: NaN compares unequal to itself, signed
// zeros compare equal while having different bits, and a comparison
// that "works" on one code path silently diverges when an upstream
// refactor changes rounding. The sanctioned helpers in internal/stats
// say what is actually meant: stats.SameFloat for bit-level identity
// (NaN-safe), stats.ApproxEqual for tolerance checks, stats.IsZero for
// guard clauses before division.
package floatdet

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"

	"starnuma/internal/lint/analysis"
)

// Analyzer is the floatdet pass.
var Analyzer = &analysis.Analyzer{
	Name: "floatdet",
	Doc: "forbid == and != on floating-point operands in simulation packages\n\n" +
		"Exact float equality is NaN-hostile and brittle under refactoring.\n" +
		"Use stats.SameFloat (bit identity), stats.ApproxEqual (tolerance), or\n" +
		"stats.IsZero (division guards) instead; math.IsNaN/math.IsInf for\n" +
		"special values.",
	Run: run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !slices.Contains(analysis.SimPackages, pass.Pkg.Path()) {
		return nil, nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			if !isFloat(pass, be.X) && !isFloat(pass, be.Y) {
				return true
			}
			// A comparison folded entirely at compile time cannot see a
			// runtime NaN and is deterministic by construction.
			if isConstant(pass, be.X) && isConstant(pass, be.Y) {
				return true
			}
			op := "=="
			if be.Op == token.NEQ {
				op = "!="
			}
			switch {
			case isMathCall(pass, be.X, "NaN") || isMathCall(pass, be.Y, "NaN"):
				pass.Reportf(be.OpPos, "comparing against math.NaN() with %s is always %v; use math.IsNaN",
					op, be.Op == token.NEQ)
			case isMathCall(pass, be.X, "Inf") || isMathCall(pass, be.Y, "Inf"):
				pass.Reportf(be.OpPos, "comparing against math.Inf with %s is fragile; use math.IsInf", op)
			case be.Op == token.NEQ && sameIdent(be.X, be.Y):
				pass.Reportf(be.OpPos, "x != x as a NaN test is obscure; use math.IsNaN")
			case isZeroLiteral(pass, be.X) || isZeroLiteral(pass, be.Y):
				pass.Reportf(be.OpPos, "float %s 0 comparison in simulation package %s; use stats.IsZero (or stats.ApproxEqual with an explicit tolerance)",
					op, pass.Pkg.Path())
			default:
				pass.Reportf(be.OpPos, "float %s comparison in simulation package %s; use stats.SameFloat for bit identity or stats.ApproxEqual with an explicit tolerance",
					op, pass.Pkg.Path())
			}
			return true
		})
	}
	return nil, nil
}

// isFloat reports whether the expression has floating-point type
// (including named types whose underlying type is a float).
func isFloat(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func isConstant(pass *analysis.Pass, e ast.Expr) bool {
	return pass.TypesInfo.Types[e].Value != nil
}

// isZeroLiteral reports whether e is the constant zero.
func isZeroLiteral(pass *analysis.Pass, e ast.Expr) bool {
	v := pass.TypesInfo.Types[e].Value
	return v != nil && v.String() == "0"
}

// isMathCall reports whether e is a call math.<name>(...).
func isMathCall(pass *analysis.Pass, e ast.Expr, name string) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "math" && fn.Name() == name
}

// sameIdent reports whether both operands are the same simple
// identifier (the classic x != x NaN test).
func sameIdent(x, y ast.Expr) bool {
	xi, ok := ast.Unparen(x).(*ast.Ident)
	if !ok {
		return false
	}
	yi, ok := ast.Unparen(y).(*ast.Ident)
	return ok && xi.Name == yi.Name
}
