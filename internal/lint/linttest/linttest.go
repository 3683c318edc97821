// Package linttest runs a starnumavet analyzer over a fixture
// directory and checks its diagnostics against // want comments, the
// same contract as x/tools' analysistest:
//
//	time.Now() // want `wall clock`
//
// Each `// want "re"` (or backquoted) regexp on a line must be matched
// by exactly one diagnostic reported on that line, and every diagnostic
// must be claimed by a want. Fixtures live under testdata/src/<pkg> and
// are type-checked as package path <pkg>, so analyzers whose behaviour
// depends on the package path are pointed at "a" with Set.
package linttest

import (
	"regexp"
	"strings"
	"testing"

	"starnuma/internal/lint/analysis"
)

var wantRE = regexp.MustCompile("//" + `\s*want\s+(.*)$`)

// Run loads the fixture directory, applies the analyzer, and reports
// any mismatch between diagnostics and // want comments as test
// errors.
func Run(t *testing.T, a *analysis.Analyzer, dir string) {
	t.Helper()
	RunAnalyzers(t, []*analysis.Analyzer{a}, dir)
}

// RunAnalyzers loads the fixture directory and applies several
// analyzers through the same driver pipeline starnumavet uses
// (analysis.RunAnalyzers), so they share one allow index. The combined
// diagnostics are checked against the fixture's // want comments. This
// is how meta-analyzers such as allowcheck — whose findings depend on
// what the other analyzers suppressed — are fixture-tested.
func RunAnalyzers(t *testing.T, analyzers []*analysis.Analyzer, dir string) {
	t.Helper()
	pkg, err := analysis.LoadFixture(dir)
	if err != nil {
		t.Fatal(err)
	}

	type key struct {
		file string
		line int
	}
	wants := make(map[key][]*regexp.Regexp)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				posn := pkg.Fset.Position(c.Pos())
				k := key{posn.Filename, posn.Line}
				for _, pat := range splitPatterns(m[1]) {
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", posn, pat, err)
					}
					wants[k] = append(wants[k], re)
				}
			}
		}
	}

	var diags []analysis.Diagnostic
	for _, res := range analysis.RunAnalyzers(analyzers, pkg) {
		if res.Err != nil {
			t.Fatalf("analyzer %s: %v", res.Analyzer.Name, res.Err)
		}
		diags = append(diags, res.Diagnostics...)
	}
	for _, d := range diags {
		posn := pkg.Fset.Position(d.Pos)
		k := key{posn.Filename, posn.Line}
		matched := false
		for i, re := range wants[k] {
			if re.MatchString(d.Message) {
				wants[k] = append(wants[k][:i], wants[k][i+1:]...)
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", posn, d.Message)
		}
	}
	for k, res := range wants {
		for _, re := range res {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, re)
		}
	}
}

// Set assigns v to *p until the test ends. Analyzers read their scope
// from package variables (analysis.SimPackages, cycleunits.UnitTypes,
// metricname.DocPath), and a test points one at its fixture with Set.
// No lint test runs in parallel, so the assignment races nothing.
func Set[T any](t *testing.T, p *T, v T) {
	t.Helper()
	old := *p
	*p = v
	t.Cleanup(func() { *p = old })
}

// splitPatterns parses the payload of a want comment: a sequence of
// double-quoted or backquoted regexps.
func splitPatterns(s string) []string {
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		quote := s[0]
		if quote != '"' && quote != '`' {
			break
		}
		end := strings.IndexByte(s[1:], quote)
		if end < 0 {
			break
		}
		out = append(out, s[1:1+end])
		s = strings.TrimSpace(s[2+end:])
	}
	if len(out) == 0 {
		// Unquoted single pattern, tolerated for terseness.
		out = append(out, s)
	}
	return out
}
