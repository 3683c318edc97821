package floatdet

import (
	"path/filepath"
	"testing"

	"starnuma/internal/lint/analysis"
	"starnuma/internal/lint/linttest"
)

func TestFloatdet(t *testing.T) {
	linttest.Set(t, &analysis.SimPackages, []string{"a"})
	linttest.Run(t, Analyzer, filepath.Join("testdata", "src", "a"))
}

// TestOutOfScope: float equality in a package outside the scope list
// (the orchestration layer) produces no diagnostics.
func TestOutOfScope(t *testing.T) {
	linttest.Set(t, &analysis.SimPackages, []string{"a"})
	linttest.Run(t, Analyzer, filepath.Join("testdata", "src", "b"))
}
