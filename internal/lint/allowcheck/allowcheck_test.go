package allowcheck

import (
	"path/filepath"
	"testing"

	"starnuma/internal/lint/analysis"
	"starnuma/internal/lint/floatdet"
	"starnuma/internal/lint/linttest"
)

// TestAllowcheck runs allowcheck together with floatdet through the
// driver pipeline, the way starnumavet does: floatdet's suppressed
// findings mark their directives used, and allowcheck audits the rest.
func TestAllowcheck(t *testing.T) {
	linttest.Set(t, &analysis.SimPackages, []string{"a"})
	linttest.RunAnalyzers(t,
		[]*analysis.Analyzer{floatdet.Analyzer, Analyzer},
		filepath.Join("testdata", "src", "a"))
}
