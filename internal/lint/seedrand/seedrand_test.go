package seedrand

import (
	"path/filepath"
	"testing"

	"starnuma/internal/lint/analysis"
	"starnuma/internal/lint/linttest"
)

func TestSeedrand(t *testing.T) {
	linttest.Set(t, &analysis.SimPackages, []string{"a"})
	linttest.Run(t, Analyzer, filepath.Join("testdata", "src", "a"))
}
