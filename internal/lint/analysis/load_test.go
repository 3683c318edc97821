package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// parseFile parses src as one file of a package under test.
func parseFile(t *testing.T, fset *token.FileSet, src string) *ast.File {
	t.Helper()
	f, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

const importsFmt = `package x

import "fmt"

var _ = fmt.Sprint
`

// TestCheckMissingExportData: type-checking a package whose import has
// no export data fails with an error naming the missing package,
// rather than a panic or a silently incomplete package.
func TestCheckMissingExportData(t *testing.T) {
	fset := token.NewFileSet()
	f := parseFile(t, fset, importsFmt)
	_, err := check(fset, "x", []*ast.File{f}, map[string]string{}, nil)
	if err == nil {
		t.Fatal("check succeeded with no export data for fmt")
	}
	if !strings.Contains(err.Error(), `no export data for "fmt"`) {
		t.Fatalf("error does not name the missing package: %v", err)
	}
}

// TestCheckImportMap: a vendored-style import — where the source-level
// import path differs from the resolved package path carrying the
// export data — resolves through the importMap translation, the same
// mechanism `go list`'s ImportMap feeds into Load.
func TestCheckImportMap(t *testing.T) {
	// Export data is registered only under the resolved (vendored)
	// path; without the importMap entry the lookup must fail ...
	exports := map[string]string{"vendor/fmt": exportDataFor(t, "fmt")}
	fset := token.NewFileSet()
	f := parseFile(t, fset, importsFmt)
	if _, err := check(fset, "x", []*ast.File{f}, exports, nil); err == nil {
		t.Fatal("check resolved fmt without an importMap entry")
	}
	// ... and with it, the same source type-checks.
	fset2 := token.NewFileSet()
	f2 := parseFile(t, fset2, importsFmt)
	pkg, err := check(fset2, "x", []*ast.File{f2}, exports, map[string]string{"fmt": "vendor/fmt"})
	if err != nil {
		t.Fatalf("check with importMap: %v", err)
	}
	if pkg.Types == nil || pkg.TypesInfo == nil {
		t.Fatal("package not fully populated")
	}
}

// TestLoadSkipsTestdata: `go list ./...` never matches packages under
// a testdata directory, so Load over a module containing one analyzes
// only the real packages — fixture trees full of deliberate violations
// stay invisible to the tree-wide lint run.
func TestLoadSkipsTestdata(t *testing.T) {
	dir := t.TempDir()
	write := func(rel, src string) {
		t.Helper()
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module example.test/m\n\ngo 1.21\n")
	write("p/p.go", "package p\n\nfunc P() int { return 1 }\n")
	write("p/testdata/src/a/a.go", "package a\n\nfunc Broken() { select {} }\n")

	pkgs, err := Load(dir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].ImportPath != "example.test/m/p" {
		var got []string
		for _, p := range pkgs {
			got = append(got, p.ImportPath)
		}
		t.Fatalf("Load matched %v, want only example.test/m/p", got)
	}
}

// TestLoadFixtureEmpty: a fixture directory with no Go files is an
// explicit error, not an empty package.
func TestLoadFixtureEmpty(t *testing.T) {
	if _, err := LoadFixture(t.TempDir()); err == nil || !strings.Contains(err.Error(), "no fixture files") {
		t.Fatalf("LoadFixture on empty dir = %v", err)
	}
}

// exportDataFor asks the go command for a std package's compiled
// export data, the same way Load does.
func exportDataFor(t *testing.T, pkg string) string {
	t.Helper()
	exports, _, err := goList("", []string{pkg})
	if err != nil {
		t.Fatal(err)
	}
	file, ok := exports[pkg]
	if !ok {
		t.Fatalf("no export data reported for %s", pkg)
	}
	return file
}
