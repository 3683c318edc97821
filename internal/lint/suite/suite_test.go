package suite

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"starnuma/internal/lint/allowcheck"
	"starnuma/internal/lint/analysis"
	"starnuma/internal/lint/cycleunits"
	"starnuma/internal/lint/floatdet"
	"starnuma/internal/lint/linttest"
	"starnuma/internal/lint/metricname"
)

// docFile is the analyzer catalogue, relative to this package.
var docFile = filepath.Join("..", "..", "..", "docs", "STATIC_ANALYSIS.md")

// tableRowRE matches a catalogue table row of the form "| `name` | ...".
var tableRowRE = regexp.MustCompile("(?m)^\\|\\s*`([a-z]+)`\\s*\\|")

// TestEveryAnalyzerDocumented keeps three sources of truth aligned:
// the registered analyzers (Analyzers()), the catalogue table in
// docs/STATIC_ANALYSIS.md, and the fixture directories under
// internal/lint/<name>/testdata/src. Adding an analyzer without
// documenting it, or documenting one that does not exist, fails here.
func TestEveryAnalyzerDocumented(t *testing.T) {
	registered := make(map[string]bool)
	for _, a := range Analyzers() {
		if registered[a.Name] {
			t.Errorf("analyzer %q registered twice", a.Name)
		}
		registered[a.Name] = true
	}

	data, err := os.ReadFile(docFile)
	if err != nil {
		t.Fatalf("reading catalogue: %v", err)
	}
	doc := string(data)

	documented := make(map[string]bool)
	for _, m := range tableRowRE.FindAllStringSubmatch(doc, -1) {
		if documented[m[1]] {
			t.Errorf("analyzer %q has two catalogue table rows", m[1])
		}
		documented[m[1]] = true
	}

	for name := range registered {
		if !documented[name] {
			t.Errorf("analyzer %q is registered but has no table row in %s", name, docFile)
		}
		// Each analyzer also gets a prose section headed "### name".
		if !strings.Contains(doc, "### "+name+" ") {
			t.Errorf("analyzer %q has no \"### %s — ...\" section in %s", name, name, docFile)
		}
		fixtures := filepath.Join("..", name, "testdata", "src")
		entries, err := os.ReadDir(fixtures)
		if err != nil || len(entries) == 0 {
			t.Errorf("analyzer %q has no fixture packages under %s: %v", name, fixtures, err)
		}
	}
	for name := range documented {
		if !registered[name] {
			t.Errorf("%s documents analyzer %q, which is not registered in suite.Analyzers()", docFile, name)
		}
	}
}

// TestFixturesPositive asserts that every registered analyzer still
// fires on its own positive fixture (testdata/src/a). A silently dead
// analyzer — one whose scope list, directive spelling, or type lookup
// rotted — passes its own // want-based test only if the wants rotted
// with it; this gate holds the minimum bar that each analyzer finds
// *something* in the tree of violations written for it.
func TestFixturesPositive(t *testing.T) {
	for _, a := range Analyzers() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			// Fixtures type-check as package "a"; analyzers scoped to the
			// real simulation packages need pointing at it, and
			// metricname needs its fixture observability doc.
			analyzers := []*analysis.Analyzer{a}
			switch a.Name {
			case "detclock", "seedrand", "floatdet":
				linttest.Set(t, &analysis.SimPackages, []string{"a"})
			case "cycleunits":
				linttest.Set(t, &cycleunits.UnitTypes, []string{"a.Time", "a.Cycles", "a.GBps"})
			case "metricname":
				linttest.Set(t, &metricname.DocPath, filepath.Join("..", "metricname", "testdata", "obs.md"))
			case "allowcheck":
				// allowcheck audits suppression usage, so it only fires
				// when run behind the analyzer its fixture's directives
				// name, through the shared driver pipeline.
				linttest.Set(t, &analysis.SimPackages, []string{"a"})
				analyzers = []*analysis.Analyzer{floatdet.Analyzer, allowcheck.Analyzer}
			}

			dir := filepath.Join("..", a.Name, "testdata", "src", "a")
			pkg, err := analysis.LoadFixture(dir)
			if err != nil {
				t.Fatalf("loading %s: %v", dir, err)
			}
			n := 0
			for _, res := range analysis.RunAnalyzers(analyzers, pkg) {
				if res.Err != nil {
					t.Fatalf("%s failed: %v", res.Analyzer.Name, res.Err)
				}
				if res.Analyzer.Name == a.Name {
					n += len(res.Diagnostics)
				}
			}
			if n == 0 {
				t.Errorf("%s produced no diagnostics on its positive fixture %s", a.Name, dir)
			}
		})
	}
}
