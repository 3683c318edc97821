// Package cycleunits guards the codebase's physical-unit types against
// silent unit crossings.
//
// The simulator measures time in sim.Time (picoseconds), core work in
// sim.Cycles (clock ticks) and bandwidth in link.GBps. Go's type system
// keeps these from mixing implicitly, but a latency-model refactor can
// still cross units through a careless conversion (sim.Time(cycles)
// treats a cycle count as picoseconds) or a meaningless product
// (Time*Time). The analyzer rejects:
//
//   - direct conversion between two distinct unit types — cross via a
//     scalar and an explicit conversion factor, or a helper such as
//     Cycles.Time(periodPS);
//   - multiplying two values of the same unit type (unit² has no
//     physical meaning in the model);
//   - adding/subtracting a bare numeric literal to a unit-typed value —
//     spell the unit out (100*sim.Nanosecond) or name the constant.
package cycleunits

import (
	"go/ast"
	"go/constant"
	"go/types"
	"slices"

	"starnuma/internal/lint/analysis"
)

// UnitTypes lists the guarded named types as "pkgpath.Name".
var UnitTypes = []string{
	"starnuma/internal/sim.Time",
	"starnuma/internal/sim.Cycles",
	"starnuma/internal/link.GBps",
}

// Analyzer is the cycleunits pass.
var Analyzer = &analysis.Analyzer{
	Name: "cycleunits",
	Doc: "forbid arithmetic that silently crosses unit types\n\n" +
		"sim.Time (picoseconds), sim.Cycles (core clock ticks) and link.GBps\n" +
		"may only be converted into one another through an explicit scalar\n" +
		"with a conversion factor (or a helper like Cycles.Time).",
	Run: run,
}

// unitKey returns the "pkgpath.Name" of t if it is a guarded unit type.
func unitKey(t types.Type) string {
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return ""
	}
	key := obj.Pkg().Path() + "." + obj.Name()
	if slices.Contains(UnitTypes, key) {
		return key
	}
	return ""
}

func run(pass *analysis.Pass) (interface{}, error) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkConversion(pass, n)
			case *ast.BinaryExpr:
				checkBinary(pass, n)
			}
			return true
		})
	}
	return nil, nil
}

// checkConversion flags T2(x) where x has unit type T1 != T2.
func checkConversion(pass *analysis.Pass, call *ast.CallExpr) {
	if len(call.Args) != 1 {
		return
	}
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || !tv.IsType() {
		return
	}
	dst := unitKey(tv.Type)
	if dst == "" {
		return
	}
	src := unitKey(pass.TypesInfo.Types[call.Args[0]].Type)
	if src == "" || src == dst {
		return
	}
	pass.Reportf(call.Pos(), "direct conversion from %s to %s silently crosses units; go through an explicit scalar with a conversion factor (e.g. a Cycles.Time-style helper)",
		src, dst)
}

func checkBinary(pass *analysis.Pass, b *ast.BinaryExpr) {
	xt := pass.TypesInfo.Types[b.X]
	yt := pass.TypesInfo.Types[b.Y]
	xu, yu := unitKey(xt.Type), unitKey(yt.Type)
	switch b.Op.String() {
	case "*":
		// A unit times itself is unit², which nothing in the model
		// measures; one operand must be a dimensionless scalar.
		if xu != "" && xu == yu && !(isConstant(xt) || isConstant(yt)) {
			pass.Reportf(b.Pos(), "%s * %s has no physical meaning (unit squared); one operand should be a dimensionless scalar",
				xu, yu)
		}
	case "+", "-":
		// unit ± bare literal: the literal's unit is unstated. Spell it
		// (100*sim.Nanosecond) or name the constant.
		if xu != "" && bareNonZeroLiteral(pass, b.Y) {
			pass.Reportf(b.Y.Pos(), "bare numeric literal %s %s leaves its unit unstated; use a unit constant (e.g. 100*sim.Nanosecond) or a named constant",
				opWord(b.Op.String()), xu)
		} else if yu != "" && bareNonZeroLiteral(pass, b.X) {
			pass.Reportf(b.X.Pos(), "bare numeric literal %s %s leaves its unit unstated; use a unit constant (e.g. 100*sim.Nanosecond) or a named constant",
				opWord(b.Op.String()), yu)
		}
	}
}

func opWord(op string) string {
	if op == "+" {
		return "added to"
	}
	return "subtracted from"
}

// isConstant reports whether the operand is a compile-time constant
// (e.g. the 1000 in `1000 * Nanosecond` carries no unit of its own even
// though the context types it as Time).
func isConstant(tv types.TypeAndValue) bool { return tv.Value != nil }

// bareNonZeroLiteral reports whether e is a literal like 100 or 0.5
// (possibly negated) with a non-zero value.
func bareNonZeroLiteral(pass *analysis.Pass, e ast.Expr) bool {
	inner := ast.Unparen(e)
	if u, ok := inner.(*ast.UnaryExpr); ok {
		inner = ast.Unparen(u.X)
	}
	if _, ok := inner.(*ast.BasicLit); !ok {
		return false
	}
	v := pass.TypesInfo.Types[e].Value
	return v != nil && constant.Sign(v) != 0
}
