package exp

import (
	"fmt"
	"strconv"

	"starnuma/internal/core"
	"starnuma/internal/migrate"
	"starnuma/internal/workload"
)

// ablateRow is one setting of one ablated knob. A default row runs the
// preset's own configuration; the others apply edit to it.
type ablateRow struct {
	knob, setting string
	spec          workload.Spec
	isDefault     bool
	edit          func(*core.SimConfig)
}

// Ablate sweeps the design points the paper fixes, one knob at a time
// on the starnuma policy: Algorithm 1's per-phase migration limit
// (§IV-C) and the region size (§III-D4) on BFS, ping-pong suppression
// and Fig. 4's 4-hop block transfer via the pool on Masstree. The
// workloads are fixed, as fig14Workloads is, and -policy is ignored.
// Each sweep's default row is fig8a's starnuma-t16 cell and every row
// divides by fig8a's baseline cell, so after fig8a only the non-default
// rows simulate. The Algorithm 1 knobs go through the starnuma policy's
// registry params; the preset suppresses ping-pong and routes block
// transfers via the pool.
func (r *Runner) Ablate() (*Table, error) {
	bfs, err := workload.ByName("BFS", r.opts.Scale)
	if err != nil {
		return nil, err
	}
	mt, err := workload.ByName("Masstree", r.opts.Scale)
	if err != nil {
		return nil, err
	}
	var rows []ablateRow
	for _, n := range []int{0, 512, 4096, 32768} {
		rows = append(rows, ablateRow{"migration_limit", strconv.Itoa(n), bfs,
			n == r.opts.Sim.Migration.MigrationLimit,
			func(c *core.SimConfig) { c.Policy.Params = migrate.Params{"migration_limit": float64(n)} }})
	}
	for _, n := range []int{8, 32, 128} {
		rows = append(rows, ablateRow{"region_pages", strconv.Itoa(n), bfs,
			n == r.opts.Sim.RegionPages,
			func(c *core.SimConfig) { c.RegionPages = n }})
	}
	rows = append(rows,
		ablateRow{"ping-pong", "suppressed", mt, true, nil},
		ablateRow{"ping-pong", "off", mt, false,
			func(c *core.SimConfig) { c.Policy.Params = migrate.Params{"disable_pingpong": 1} }},
		ablateRow{"block-transfer", "via-pool", mt, true, nil},
		ablateRow{"block-transfer", "direct", mt, false,
			func(c *core.SimConfig) { c.ForceDirectBT = true }},
	)

	cfg := r.opts.Sim
	cfg.Policy = core.PolicyStarNUMA
	def := pooled("starnuma-t16", core.StarNUMASystem(), cfg)
	baseline := r.baselineVariant()
	cells := make([]cell, 0, 2*len(rows))
	for _, row := range rows {
		v := def
		if !row.isDefault {
			// knob=setting is unique per row, so the name identifies
			// the edited configuration.
			c := cfg
			row.edit(&c)
			v = variant{"ablate-" + row.knob + "=" + row.setting, core.StarNUMASystem(), c}
		}
		cells = append(cells, cell{baseline, row.spec}, cell{v, row.spec})
	}
	res, err := r.results(cells)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:      "ablate",
		Title:   "Algorithm 1 and block-transfer ablations of the starnuma policy",
		Columns: []string{"ablation", "setting", "workload", "speedup", "pages migrated"},
		Notes:   "extension: always the starnuma policy, one knob at a time; §IV-C sweeps the migration limit, §III-D4 picks 512KB regions (128 pages, scaled here), Algorithm 1 suppresses ping-pong, Fig. 4 routes pool-home block transfers via the pool (200ns vs 333ns 3-hop)",
	}
	for i, row := range rows {
		base, sn := res[2*i], res[2*i+1]
		setting := row.setting
		if row.isDefault {
			setting += " (default)"
		}
		ms := sn.MigrStats
		t.Rows = append(t.Rows, []string{row.knob, setting, row.spec.Name,
			x(core.Speedup(sn, base)), fmt.Sprintf("%d", ms.PagesToPool+ms.PagesToSocket)})
	}
	return t, nil
}
