package analysis

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// nobad reports every function named Bad, a stand-in analyzer for
// driving run.
var nobad = &Analyzer{
	Name: "nobad",
	Doc:  "forbid functions named Bad",
	Run: func(pass *Pass) (interface{}, error) {
		for _, f := range pass.Files {
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Name.Name == "Bad" {
					pass.Reportf(fn.Name.Pos(), "function Bad")
				}
			}
		}
		return nil, nil
	},
}

// emptyReport is the report of a clean tree, byte for byte.
const emptyReport = `{
	"schema": "starnumavet-diagnostics-v1",
	"diagnostics": []
}
`

// runOn writes src as package p of a fresh module and runs the driver
// over it with args, returning the exit code, stdout and stderr.
func runOn(t *testing.T, src string, args ...string) (int, string, string) {
	t.Helper()
	dir := t.TempDir()
	for rel, data := range map[string]string{
		"go.mod": "module example.test/m\n\ngo 1.21\n",
		"p/p.go": src,
	} {
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var stdout, stderr bytes.Buffer
	code := run(dir, append(args, "./..."), &stdout, &stderr, []*Analyzer{nobad})
	return code, stdout.String(), stderr.String()
}

// TestRunVerdict pins the driver's exit code and output, which CI's one
// lint step relies on alone: a finding exits 1, a clean tree or an
// allowed finding exits 0 with the empty report, and a flag other than
// -json is a usage error.
func TestRunVerdict(t *testing.T) {
	t.Run("finding", func(t *testing.T) {
		code, stdout, _ := runOn(t, "package p\n\nfunc Bad() {}\n", "-json")
		if code != 1 {
			t.Errorf("exit %d, want 1", code)
		}
		got := new(Report)
		if err := json.Unmarshal([]byte(stdout), got); err != nil {
			t.Fatalf("report does not decode: %v\n%s", err, stdout)
		}
		want := []JSONDiagnostic{{File: "p/p.go", Line: 3, Col: 6, Analyzer: "nobad", Message: "function Bad"}}
		if got.Schema != ReportSchema || !reflect.DeepEqual(got.Diagnostics, want) {
			t.Errorf("report = %+v, want %s with %+v", got, ReportSchema, want)
		}

		code, stdout, stderr := runOn(t, "package p\n\nfunc Bad() {}\n")
		if code != 1 || stdout != "" || stderr != "p/p.go:3:6: function Bad [nobad]\n" {
			t.Errorf("text mode: exit %d, stdout %q, stderr %q", code, stdout, stderr)
		}
	})

	t.Run("clean", func(t *testing.T) {
		code, stdout, stderr := runOn(t, "package p\n\nfunc Good() {}\n", "-json")
		if code != 0 || stdout != emptyReport {
			t.Errorf("exit %d, report:\n%s\nstderr: %s", code, stdout, stderr)
		}
	})

	t.Run("allowed", func(t *testing.T) {
		src := "package p\n\n//starnumavet:allow nobad kept to test the driver\nfunc Bad() {}\n"
		code, stdout, stderr := runOn(t, src, "-json")
		if code != 0 || stdout != emptyReport {
			t.Errorf("exit %d, report:\n%s\nstderr: %s", code, stdout, stderr)
		}
	})

	t.Run("removed flags", func(t *testing.T) {
		for _, flag := range []string{"-baseline=lint.baseline.json", "-writebaseline=x.json", "-V=full", "-flags", "-nobad.packages=a"} {
			if code, _, _ := runOn(t, "package p\n", flag); code != 2 {
				t.Errorf("%s: exit %d, want 2 (usage error)", flag, code)
			}
		}
		var stdout, stderr bytes.Buffer
		if code := run("", []string{"-h"}, &stdout, &stderr, []*Analyzer{nobad}); code != 0 {
			t.Errorf("-h: exit %d, want 0", code)
		}
		var flags []string
		for _, line := range strings.Split(stderr.String(), "\n") {
			if strings.HasPrefix(line, "  -") {
				flags = append(flags, strings.Fields(line)[0])
			}
		}
		if !reflect.DeepEqual(flags, []string{"-json"}) {
			t.Errorf("-h lists flags %v, want only -json:\n%s", flags, stderr.String())
		}
	})
}
