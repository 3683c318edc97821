package metricname

import (
	"path/filepath"
	"testing"

	"starnuma/internal/lint/linttest"
)

func TestMetricname(t *testing.T) {
	linttest.Set(t, &DocPath, filepath.Join("testdata", "obs.md"))
	linttest.Run(t, Analyzer, filepath.Join("testdata", "src", "a"))
}
