package cycleunits

import (
	"path/filepath"
	"testing"

	"starnuma/internal/lint/linttest"
)

func TestCycleunits(t *testing.T) {
	linttest.Set(t, &UnitTypes, []string{"a.Time", "a.Cycles", "a.GBps"})
	linttest.Run(t, Analyzer, filepath.Join("testdata", "src", "a"))
}
