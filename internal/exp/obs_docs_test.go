package exp

import (
	"os"
	"sort"
	"strings"
	"testing"

	"starnuma/internal/core"
	"starnuma/internal/fault"
	"starnuma/internal/workload"
)

// TestMetricNamespaceDocumented runs a small instrumented simulation
// (with a fault plan active, so fault/* keys appear) and fails when an
// emitted metric's top-level prefix has no section in
// docs/OBSERVABILITY.md. Adding a new metric family without documenting
// it breaks the build; the doc's namespace table cannot rot silently.
func TestMetricNamespaceDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(doc)

	spec, err := workload.ByName("BFS", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultSim()
	cfg.Phases = 2
	cfg.PhaseInstr = 200_000
	cfg.TimedInstr = 20_000
	cfg.WarmupInstr = 2_000
	// Instrumentation on also runs the stall ledger, so the check covers
	// a ledger-carrying run: its totals live in Result.Profile and emit
	// no attrib/* metric keys.
	cfg.Instrument = true
	cfg.Faults = fault.FlapPlan()
	res, err := core.Run(core.StarNUMASystem(), cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Empty() {
		t.Fatal("Instrument=true produced an empty snapshot")
	}

	prefixes := make(map[string]bool)
	collect := func(name string) {
		p, _, ok := strings.Cut(name, "/")
		if !ok {
			t.Errorf("metric %q is not hierarchical (no / separator)", name)
			return
		}
		prefixes[p] = true
	}
	for name := range res.Metrics.Counters {
		collect(name)
	}
	for name := range res.Metrics.Histograms {
		collect(name)
	}
	for name := range res.Metrics.Series {
		collect(name)
	}

	if prefixes["attrib"] {
		t.Error("metrics carry attrib/* keys; stall totals belong to Result.Profile only")
	}
	if res.Profile == nil {
		t.Error("Instrument=true produced no stall profile")
	}

	var missing []string
	for p := range prefixes {
		// Each namespace gets a heading of the form "### `sim/` — ...".
		if !strings.Contains(text, "`"+p+"/`") {
			missing = append(missing, p)
		}
	}
	sort.Strings(missing)
	for _, p := range missing {
		t.Errorf("metric prefix %q emitted but undocumented: add a `### `+\"`%s/`\"+` section to docs/OBSERVABILITY.md", p, p)
	}
}
