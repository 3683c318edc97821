// Package analysis is a minimal, dependency-free reimplementation of
// the golang.org/x/tools/go/analysis model, sized for starnumavet.
//
// The repository is stdlib-only by policy (DESIGN.md §2), so rather
// than vendoring x/tools this package provides the pieces the
// determinism lint suite needs:
//
//   - the Analyzer/Pass/Diagnostic contract analyzers are written
//     against, and SimPackages, the scope of the determinism contract
//     (this file);
//   - a package loader driving `go list -export` + go/importer for
//     the driver and test fixtures alike (load.go);
//   - the one driver, Main, which loads packages through `go list` and
//     exits 1 on any finding (driver.go);
//   - the byte-stable machine-readable diagnostics report -json prints
//     (report.go).
//
// An analyzer has no flags: its scope is a package variable, which
// fixture tests reassign for their duration.
//
// Analyzers written against this package look exactly like x/tools
// analyzers, so they can be ported wholesale if the dependency policy
// ever changes.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer is one static check. Name must be a valid identifier; it
// doubles as the key in //starnumavet:allow directives.
type Analyzer struct {
	Name string
	Doc  string

	// RunAfter marks a meta-analyzer that must run after every ordinary
	// analyzer on the package: its pass observes the shared AllowIndex
	// (directives, suppression usage, registered analyzer names). The
	// allowcheck analyzer is the only RunAfter pass today.
	RunAfter bool

	Run func(*Pass) (interface{}, error)
}

func (a *Analyzer) String() string { return a.Name }

// A Pass presents one package to an analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File // excludes _test.go files; the contract covers shipped code only
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)

	// allow is the package's shared allow-directive index. The driver
	// builds it once per package; a Pass constructed by hand (tests)
	// builds it lazily on first use.
	allow *AllowIndex
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted diagnostic at pos, unless an allow
// directive covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	if p.Allowed(pos) {
		return
	}
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// AllowIndex returns the pass's shared allow-directive index, building
// it from the pass's files on first use.
func (p *Pass) AllowIndex() *AllowIndex {
	if p.allow == nil {
		p.allow = NewAllowIndex(p.Fset, p.Files)
	}
	return p.allow
}

// AllowDirective is the comment prefix that suppresses a diagnostic:
//
//	//starnumavet:allow <analyzer> <reason>
//
// placed on the flagged line or the line immediately above it. A
// directive without a reason is ignored — every exemption must say why
// (the determinism contract in README.md explains the policy). The
// allowcheck analyzer turns reasonless, misspelled and stale directives
// into errors of their own.
const AllowDirective = "//starnumavet:allow"

// AllowInfo describes one parsed //starnumavet:allow directive.
type AllowInfo struct {
	Pos      token.Pos
	Analyzer string // first field after the directive ("" if none)
	Reason   string // remainder; "" marks an inert, reasonless directive
}

// allowEntry records the analyzers a directive line permits and
// whether the directive stands alone on its line (in which case it
// also covers the following line).
type allowEntry struct {
	analyzers  map[string]bool
	standalone bool
}

type allowKey struct {
	file     string
	line     int
	analyzer string
}

// AllowIndex is one package's parsed //starnumavet:allow directives
// plus their suppression usage, shared by every pass the driver runs so
// the allowcheck analyzer can flag stale or misspelled directives.
type AllowIndex struct {
	directives []AllowInfo
	byLine     map[string]map[int]allowEntry
	used       map[allowKey]bool
	registered map[string]bool
}

// NewAllowIndex parses the files' allow directives.
func NewAllowIndex(fset *token.FileSet, files []*ast.File) *AllowIndex {
	ix := &AllowIndex{
		byLine: make(map[string]map[int]allowEntry),
		used:   make(map[allowKey]bool),
	}
	for _, f := range files {
		// Lines on which a non-comment token starts: a directive on such
		// a line trails code and must not cover the next line.
		codeLines := make(map[int]bool)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n.(type) {
			case nil, *ast.Comment, *ast.CommentGroup:
				return false
			}
			codeLines[fset.Position(n.Pos()).Line] = true
			return true
		})
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, AllowDirective)
				if !ok {
					continue
				}
				// The payload ends at an embedded "//": it marks a nested
				// comment (fixtures put // want checks there), not reason text.
				if i := strings.Index(rest, "//"); i >= 0 {
					rest = rest[:i]
				}
				info := AllowInfo{Pos: c.Pos()}
				fields := strings.Fields(rest)
				if len(fields) > 0 {
					info.Analyzer = fields[0]
				}
				if len(fields) > 1 {
					info.Reason = strings.Join(fields[1:], " ")
				}
				ix.directives = append(ix.directives, info)
				if info.Analyzer == "" || info.Reason == "" {
					continue // no reason given: directive has no effect
				}
				posn := fset.Position(c.Pos())
				lines := ix.byLine[posn.Filename]
				if lines == nil {
					lines = make(map[int]allowEntry)
					ix.byLine[posn.Filename] = lines
				}
				e, ok := lines[posn.Line]
				if !ok {
					e = allowEntry{analyzers: make(map[string]bool), standalone: !codeLines[posn.Line]}
				}
				e.analyzers[info.Analyzer] = true
				lines[posn.Line] = e
			}
		}
	}
	return ix
}

// SetRegistered records the analyzer names the driver is running, so
// allowcheck can reject directives naming analyzers that do not exist.
func (ix *AllowIndex) SetRegistered(names []string) {
	ix.registered = make(map[string]bool, len(names))
	for _, n := range names {
		ix.registered[n] = true
	}
}

// IsRegistered reports whether name is a driver-registered analyzer.
// Without a driver (hand-built passes) every name is accepted.
func (ix *AllowIndex) IsRegistered(name string) bool {
	if ix.registered == nil {
		return true
	}
	return ix.registered[name]
}

// Directives returns every parsed allow directive, including inert
// (reasonless) and misspelled ones.
func (ix *AllowIndex) Directives() []AllowInfo { return ix.directives }

// Used reports whether the directive at pos for the given analyzer
// suppressed at least one diagnostic.
func (ix *AllowIndex) Used(fset *token.FileSet, d AllowInfo) bool {
	posn := fset.Position(d.Pos)
	return ix.used[allowKey{posn.Filename, posn.Line, d.Analyzer}]
}

// allowed reports whether a directive for analyzer covers posn, and
// records the suppression: a directive trailing code covers that line
// only; a directive alone on a line covers the line below it.
func (ix *AllowIndex) allowed(analyzer string, posn token.Position) bool {
	lines := ix.byLine[posn.Filename]
	if e, ok := lines[posn.Line]; ok && e.analyzers[analyzer] {
		ix.used[allowKey{posn.Filename, posn.Line, analyzer}] = true
		return true
	}
	if e, ok := lines[posn.Line-1]; ok && e.standalone && e.analyzers[analyzer] {
		ix.used[allowKey{posn.Filename, posn.Line - 1, analyzer}] = true
		return true
	}
	return false
}

// Allowed reports whether an allow directive for this pass's analyzer
// covers pos, recording the suppression in the shared index.
func (p *Pass) Allowed(pos token.Pos) bool {
	return p.AllowIndex().allowed(p.Analyzer.Name, p.Fset.Position(pos))
}

// Result pairs an analyzer with its findings on one package.
type Result struct {
	Analyzer    *Analyzer
	Diagnostics []Diagnostic
	Err         error
}

// RunAnalyzers executes each analyzer over the package, filtering
// _test.go files out of the pass (the determinism contract covers
// shipped code; tests may time things and read the environment). All
// passes share one AllowIndex; RunAfter analyzers run last and observe
// the suppression usage the ordinary analyzers accumulated.
func RunAnalyzers(analyzers []*Analyzer, pkg *Package) []Result {
	var nonTest []*ast.File
	for _, f := range pkg.Files {
		name := pkg.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		nonTest = append(nonTest, f)
	}
	ix := NewAllowIndex(pkg.Fset, nonTest)
	names := make([]string, len(analyzers))
	for i, a := range analyzers {
		names[i] = a.Name
	}
	ix.SetRegistered(names)

	ordered := make([]*Analyzer, 0, len(analyzers))
	for _, a := range analyzers {
		if !a.RunAfter {
			ordered = append(ordered, a)
		}
	}
	for _, a := range analyzers {
		if a.RunAfter {
			ordered = append(ordered, a)
		}
	}

	indexOf := make(map[*Analyzer]int, len(analyzers))
	for i, a := range analyzers {
		indexOf[a] = i
	}
	results := make([]Result, len(analyzers))
	for _, a := range ordered {
		res := &results[indexOf[a]]
		res.Analyzer = a
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     nonTest,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			Report:    func(d Diagnostic) { res.Diagnostics = append(res.Diagnostics, d) },
			allow:     ix,
		}
		_, res.Err = a.Run(pass)
	}
	return results
}

// The loader fills this in; declared here so RunAnalyzers can live next
// to the Pass type it builds.
type Package struct {
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	TypesInfo  *types.Info
}

// NewInfo returns a types.Info with every map analyzers consult
// allocated.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// SimPackages is the set of packages bound by the determinism contract,
// the scope of detclock, seedrand and floatdet: everything that executes
// between a (system, sim, workload, seed) cache key and a Result must
// be a pure function of that key. Only internal/runner, internal/exp,
// internal/lint and cmd/ may read the wall clock or the environment —
// they sit outside the cached computation.
var SimPackages = []string{
	"starnuma/internal/attrib",
	"starnuma/internal/fault",
	"starnuma/internal/scenario",
	"starnuma/internal/metrics",
	"starnuma/internal/sim",
	"starnuma/internal/core",
	"starnuma/internal/evtrace",
	"starnuma/internal/migrate",
	"starnuma/internal/coherence",
	"starnuma/internal/cache",
	"starnuma/internal/link",
	"starnuma/internal/memdev",
	"starnuma/internal/pool",
	"starnuma/internal/tlb",
	"starnuma/internal/topology",
	"starnuma/internal/trace",
	"starnuma/internal/tracker",
	"starnuma/internal/workload",
	"starnuma/internal/stats",
}
