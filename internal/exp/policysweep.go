package exp

import (
	"fmt"
	"sort"

	"starnuma/internal/attrib"
	"starnuma/internal/core"
	"starnuma/internal/migrate"
	"starnuma/internal/stats"
)

// PolicySweep runs the migration-policy tournament: every policy in the
// migrate registry, each on the pooled StarNUMA system across the full
// workload suite and the sweep's fault plans, every cell normalized to
// the paper's favoured baseline (pool-less, perfect zero-cost knowledge,
// fault-free). Rows are ranked by the overall geometric-mean speedup —
// ties broken by name — so the table reads as a leaderboard. The
// zero-cost oracle is the expected winner (Fig. 9's static-oracle 1.46×
// vs dynamic 1.31× on the pooled system); a dynamic policy beating it
// signals a modeling bug, which is exactly what CI asserts.
func (r *Runner) PolicySweep() (*Table, error) {
	specs, err := r.opts.specs()
	if err != nil {
		return nil, err
	}
	// The tournament scores under faultScenarios' survivable prefix:
	// fault-free, transient CXL flaps, and a persistent 4× CXL
	// degradation. Kill plans (dead channel / dead device) are
	// deliberately excluded — the zero-cost oracle commits its whole-run
	// placement up front and cannot drain a dying pool, so kill plans
	// would measure drain mechanics rather than placement quality.
	plans := faultScenarios()[:survivablePlans]
	pols := migrate.Policies()

	vs := []variant{r.baselineVariant()}
	for _, d := range pols {
		for _, pl := range plans {
			cfg := r.opts.Sim
			cfg.Policy = core.PolicySpec{Name: d.Name}
			cfg.Faults = pl.plan
			vs = append(vs, variant{"psweep-" + d.Name + "-" + pl.name,
				core.StarNUMASystem(), cfg})
		}
	}
	g, err := r.grid(specs, vs...)
	if err != nil {
		return nil, err
	}

	type ranked struct {
		name    string
		perPlan []float64
		overall float64
		// stalls aggregates the policy's stall attribution across every
		// (plan, workload) run when -attrib is enabled.
		stalls []int64
	}
	rows := make([]ranked, 0, len(pols))
	idx := 1 // g[0] is the baseline anchor
	for _, d := range pols {
		rk := ranked{name: d.Name}
		if r.opts.Sim.Attrib {
			rk.stalls = make([]int64, attrib.NumCategories)
		}
		var all []float64
		for range plans {
			var ratios []float64
			for i, res := range g[idx] {
				s := core.Speedup(res, g[0][i])
				ratios = append(ratios, s)
				all = append(all, s)
				if rk.stalls != nil && res.Profile != nil {
					// Cache recalls of attribution-off entries carry no
					// profile; mismatched shapes are skipped the same way.
					_ = res.Profile.AddCategoryTotals(rk.stalls)
				}
			}
			idx++
			rk.perPlan = append(rk.perPlan, stats.GeoMean(ratios))
		}
		rk.overall = stats.GeoMean(all)
		rows = append(rows, rk)
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].overall > rows[j].overall {
			return true
		}
		if rows[i].overall < rows[j].overall {
			return false
		}
		return rows[i].name < rows[j].name
	})

	t := &Table{
		ID:    "policysweep",
		Title: "Migration-policy tournament: gmean speedup vs favoured baseline",
		Columns: []string{"rank", "policy", "fault-free", "flap", "degrade 4x",
			"overall"},
		Notes: "extension (§V-B/§VI): leaderboard across fault plans, all on the pooled system, normalized to the fault-free pool-less perfect baseline; the zero-cost oracle must rank first (Fig. 9: static oracle 1.46x vs dynamic 1.31x) — a dynamic policy beating it would signal a modeling bug",
	}
	if r.opts.Sim.Attrib {
		t.Columns = append(t.Columns, "top-stall", "top-stall-share")
	}
	for i, rk := range rows {
		row := []string{fmt.Sprintf("%d", i+1), rk.name}
		for _, g := range rk.perPlan {
			row = append(row, x(g))
		}
		row = append(row, x(rk.overall))
		if rk.stalls != nil {
			cat, share := topStall(rk.stalls)
			row = append(row, cat, share)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// topStall names the dominant stall category of an attribution
// aggregate and its share of total stall time; "-" cells when the
// aggregate is empty (e.g. every run recalled from an attribution-off
// cache entry).
func topStall(totals []int64) (name, share string) {
	var sum, best int64
	bi := -1
	for i, v := range totals {
		sum += v
		if v > best {
			best, bi = v, i
		}
	}
	if sum == 0 || bi < 0 {
		return "-", "-"
	}
	return attrib.Category(bi).String(), fmt.Sprintf("%.1f%%", 100*float64(best)/float64(sum))
}
