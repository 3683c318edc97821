package exp

import (
	"strings"
	"testing"
)

// TestAblateReusesFig8aCells runs Ablate after Fig8a on one runner: each
// sweep's default row must be fig8a's T16 cell, recalled rather than
// re-simulated, so only the seven non-default rows add runs.
func TestAblateReusesFig8aCells(t *testing.T) {
	r := NewRunner(tinyOptions("BFS", "Masstree"))
	fig8a, err := r.Fig8a()
	if err != nil {
		t.Fatal(err)
	}
	runs := len(r.Manifest().Runs)
	tbl, err := r.Ablate()
	if err != nil {
		t.Fatal(err)
	}
	if added := len(r.Manifest().Runs) - runs; added != 7 {
		t.Errorf("ablate added %d runs beyond fig8a's, want 7:\n%s", added, tbl.Render())
	}
	t16 := map[string]string{} // workload → fig8a's T16 speedup
	for _, row := range fig8a.Rows {
		t16[row[0]] = row[1]
	}
	defaults := 0
	for _, row := range tbl.Rows {
		knob, setting, wl, speedup, pages := row[0], row[1], row[2], row[3], row[4]
		if strings.HasSuffix(setting, " (default)") {
			defaults++
			if speedup != t16[wl] {
				t.Errorf("%s default on %s = %s, fig8a T16 = %s", knob, wl, speedup, t16[wl])
			}
		}
		if knob == "migration_limit" && setting == "0" && pages != "0" {
			t.Errorf("migration_limit 0 migrated %s pages", pages)
		}
	}
	if defaults != 4 {
		t.Errorf("%d default rows, want one per sweep (4):\n%s", defaults, tbl.Render())
	}
}
