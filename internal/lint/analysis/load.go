package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
)

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	Dir        string
	ImportPath string
	Export     string
	Standard   bool
	DepOnly    bool
	GoFiles    []string
	ImportMap  map[string]string
}

// goList runs `go list -e -export -json -deps` on patterns in dir (""
// meaning the current directory). It returns the export-data file of
// every listed package, keyed by import path, and the packages the
// patterns matched themselves: neither dependencies nor std. It works
// offline: the go command compiles export data into the build cache and
// reports the file paths, and go/importer reads them back.
func goList(dir string, patterns []string) (map[string]string, []*listPackage, error) {
	args := append([]string{
		"list", "-e", "-export",
		"-json=ImportPath,Dir,GoFiles,Export,Standard,DepOnly,ImportMap",
		"-deps"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("lint: go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}
	exports := make(map[string]string)
	var targets []*listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			targets = append(targets, p)
		}
	}
	return exports, targets, nil
}

// Load type-checks the packages matching patterns (resolved relative to
// dir, "" meaning the current directory; no pattern means ./...) and
// returns them ready for analysis, sorted by import path. Test files
// are not listed and therefore never analyzed.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	exports, targets, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var pkgs []*Package
	for _, lp := range targets {
		if len(lp.GoFiles) == 0 {
			continue
		}
		var files []*ast.File
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		pkg, err := check(fset, lp.ImportPath, files, exports, lp.ImportMap)
		if err != nil {
			return nil, fmt.Errorf("lint: type-checking %s: %v", lp.ImportPath, err)
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].ImportPath < pkgs[j].ImportPath })
	return pkgs, nil
}

// LoadFixture parses and type-checks a single test-fixture directory
// (testdata/src/<name>) as package path <name>. Imports are resolved by
// asking the surrounding module for their export data, so fixtures may
// import anything the module can.
func LoadFixture(dir string) (*Package, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	if len(matches) == 0 {
		return nil, fmt.Errorf("lint: no fixture files in %s", dir)
	}
	sort.Strings(matches)
	fset := token.NewFileSet()
	var files []*ast.File
	importSet := make(map[string]bool)
	for _, name := range matches {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		for _, imp := range f.Imports {
			importSet[importPathOf(imp)] = true
		}
	}
	var exports map[string]string // no imports, no export data to look up
	if len(importSet) > 0 {
		var imports []string
		for p := range importSet {
			imports = append(imports, p)
		}
		sort.Strings(imports)
		// dir is inside the module; go list resolves std from anywhere in it.
		if exports, _, err = goList(dir, imports); err != nil {
			return nil, err
		}
	}
	pkg, err := check(fset, filepath.Base(dir), files, exports, nil)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking fixture %s: %v", dir, err)
	}
	return pkg, nil
}

func importPathOf(imp *ast.ImportSpec) string {
	p := imp.Path.Value
	return p[1 : len(p)-1] // strip quotes
}

// check type-checks one package whose imports resolve through the
// export-data files in exports (keyed by resolved package path, with
// importMap translating source-level import paths first).
func check(fset *token.FileSet, path string, files []*ast.File, exports map[string]string, importMap map[string]string) (*Package, error) {
	lookup := func(pkgPath string) (io.ReadCloser, error) {
		file, ok := exports[pkgPath]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", pkgPath)
		}
		return os.Open(file)
	}
	compilerImporter := importer.ForCompiler(fset, "gc", lookup)
	imp := importerFunc(func(importPath string) (*types.Package, error) {
		if resolved, ok := importMap[importPath]; ok {
			importPath = resolved
		}
		return compilerImporter.Import(importPath)
	})
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	info := NewInfo()
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, err
	}
	return &Package{
		ImportPath: path,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		TypesInfo:  info,
	}, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
