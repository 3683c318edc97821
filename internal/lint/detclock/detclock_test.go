package detclock

import (
	"path/filepath"
	"testing"

	"starnuma/internal/lint/analysis"
	"starnuma/internal/lint/linttest"
)

func TestDetclock(t *testing.T) {
	linttest.Set(t, &analysis.SimPackages, []string{"a"})
	linttest.Run(t, Analyzer, filepath.Join("testdata", "src", "a"))
}

// TestOutOfScope: the same calls in a package outside the scope list
// (the runner/exp/cmd orchestration layer) produce no diagnostics.
func TestOutOfScope(t *testing.T) {
	linttest.Set(t, &analysis.SimPackages, []string{"a"})
	linttest.Run(t, Analyzer, filepath.Join("testdata", "src", "b"))
}
