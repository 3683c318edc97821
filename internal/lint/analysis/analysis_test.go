package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

func TestAllowDirective(t *testing.T) {
	src := `package p

func f() {
	//starnumavet:allow det reason given here
	a := 1
	b := 2 //starnumavet:allow det same-line reason
	c := 3
	//starnumavet:allow det
	d := 4
	_, _, _, _ = a, b, c, d
}
`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pass := &Pass{
		Analyzer: &Analyzer{Name: "det"},
		Fset:     fset,
		Files:    []*ast.File{file},
	}
	lineStart := func(line int) token.Pos {
		return fset.File(file.Pos()).LineStart(line)
	}
	for _, tc := range []struct {
		line int
		want bool
		why  string
	}{
		{5, true, "directive on preceding line"},
		{6, true, "directive on same line"},
		{7, false, "no directive"},
		{9, false, "directive without a reason is inert"},
	} {
		if got := pass.Allowed(lineStart(tc.line)); got != tc.want {
			t.Errorf("line %d: Allowed = %v, want %v (%s)", tc.line, got, tc.want, tc.why)
		}
	}

	other := &Pass{Analyzer: &Analyzer{Name: "other"}, Fset: fset, Files: pass.Files}
	if other.Allowed(lineStart(5)) {
		t.Error("directive for det must not cover analyzer other")
	}
}

// TestLoad exercises the go list -export pipeline on a real package.
func TestLoad(t *testing.T) {
	pkgs, err := Load("", "starnuma/internal/sim")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].ImportPath != "starnuma/internal/sim" {
		t.Fatalf("Load = %v", pkgs)
	}
	p := pkgs[0]
	if p.Types == nil || p.TypesInfo == nil || len(p.Files) == 0 {
		t.Fatal("package not fully populated")
	}
	if p.Types.Scope().Lookup("Engine") == nil {
		t.Error("sim.Engine not in package scope")
	}
}
