package exp

import "fmt"

// Experiment is one registered reproduction: a stable identifier, the
// figure or table of the paper it reproduces, and the function that
// runs it. The registry below is the single source of truth — IDs,
// ByID and the CLI's -list and -exp all derive from it, so adding
// an experiment is one literal here plus its Run method.
type Experiment struct {
	// ID is the canonical identifier ("fig8a", "tab3", "extrep").
	ID string
	// Aliases are additional accepted spellings ("table3" for "tab3").
	Aliases []string
	// Title is the one-line human description shown by -list.
	Title string
	// PaperRef names the figure/table/section of the paper reproduced,
	// or the extension study it belongs to.
	PaperRef string
	// Run executes the experiment. Static experiments (no simulation)
	// ignore the runner.
	Run func(*Runner) (*Table, error)
}

// registry lists every experiment in paper order.
var registry = []Experiment{
	{ID: "fig2", Title: "BFS page sharing and access distributions", PaperRef: "Fig. 2",
		Run: (*Runner).Fig2},
	{ID: "fig3", Title: "CXL memory pool access latency breakdown", PaperRef: "Fig. 3",
		Run: func(*Runner) (*Table, error) { return Fig3(), nil }},
	{ID: "fig4", Title: "Coherence block-transfer network latency", PaperRef: "Fig. 4",
		Run: func(*Runner) (*Table, error) { return Fig4(), nil }},
	{ID: "tab3", Aliases: []string{"table3"}, Title: "Workload summary: IPC and LLC MPKI", PaperRef: "Table III",
		Run: (*Runner).Table3},
	{ID: "fig8a", Title: "StarNUMA IPC normalized to baseline", PaperRef: "Fig. 8a",
		Run: (*Runner).Fig8a},
	{ID: "fig8b", Title: "AMAT: unloaded + contention decomposition", PaperRef: "Fig. 8b",
		Run: (*Runner).Fig8b},
	{ID: "fig8c", Title: "Memory access breakdown by type", PaperRef: "Fig. 8c",
		Run: (*Runner).Fig8c},
	{ID: "tab4", Aliases: []string{"table4"}, Title: "Fraction of migrations targeting the pool", PaperRef: "Table IV",
		Run: (*Runner).Table4},
	{ID: "fig9", Title: "Oracular static placement study", PaperRef: "Fig. 9",
		Run: (*Runner).Fig9},
	{ID: "fig10", Title: "Pool latency sensitivity (switched CXL)", PaperRef: "Fig. 10",
		Run: (*Runner).Fig10},
	{ID: "fig11", Title: "Link bandwidth provisioning study", PaperRef: "Fig. 11",
		Run: (*Runner).Fig11},
	{ID: "fig12", Title: "Pool capacity sensitivity", PaperRef: "Fig. 12",
		Run: (*Runner).Fig12},
	{ID: "fig13", Title: "TC page sharing and access distributions", PaperRef: "Fig. 13",
		Run: (*Runner).Fig13},
	{ID: "fig14", Title: "Methodology robustness (SC1/SC2/SC3)", PaperRef: "Fig. 14",
		Run: (*Runner).Fig14},
	{ID: "extrep", Title: "Page replication study", PaperRef: "§V-F extension",
		Run: (*Runner).ExtReplication},
	{ID: "ext32", Title: "32-socket scale-out study", PaperRef: "extension",
		Run: (*Runner).Ext32Sockets},
	{ID: "extsw", Title: "Software access tracking study", PaperRef: "§III-D1 extension",
		Run: (*Runner).ExtSoftwareTracking},
	{ID: "extdrift", Title: "Phase-drift sensitivity study", PaperRef: "extension",
		Run: (*Runner).ExtDrift},
	{ID: "faultsweep", Aliases: []string{"faults"}, Title: "Degraded-mode sweep under CXL fabric fault plans", PaperRef: "§VI RAS extension",
		Run: (*Runner).FaultSweep},
	{ID: "policysweep", Aliases: []string{"tournament"}, Title: "Migration-policy tournament across workloads and fault plans", PaperRef: "§V-B/§VI extension",
		Run: (*Runner).PolicySweep},
	{ID: "ablate", Title: "Algorithm 1 knob and block-transfer ablations", PaperRef: "§IV-C/§III-D4/Fig. 4 extension",
		Run: (*Runner).Ablate},
}

// Experiments returns the registered experiments in paper order. The
// slice is a copy; descriptors are shared.
func Experiments() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// Lookup resolves an identifier (canonical or alias) to its descriptor.
func Lookup(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
		for _, a := range e.Aliases {
			if a == id {
				return e, true
			}
		}
	}
	return Experiment{}, false
}

// IDs lists all canonical experiment identifiers in paper order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.ID
	}
	return out
}

// ByID runs a single experiment by identifier or alias.
func (r *Runner) ByID(id string) (*Table, error) {
	e, ok := Lookup(id)
	if !ok {
		return nil, fmt.Errorf("exp: unknown experiment %q (see IDs())", id)
	}
	return e.Run(r)
}
