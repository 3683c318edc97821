package workload

import "fmt"

// The suite below encodes the eight workloads of Table III. Sharing
// distributions follow the paper's published characterisations:
//
//   - BFS (Fig. 2): 17% of pages private, 78% with ≤4 sharers, 7% with
//     >8 sharers — but those widely-shared pages absorb 68% of accesses
//     and the 2% shared by all 16 sockets absorb 36%. Mostly read-write.
//   - TC (Fig. 13): read-only sharing; 60% of the dataset touched by all
//     16 sockets, 80% by 8+, accesses spread more evenly than BFS.
//   - SSSP/CC: graph kernels qualitatively like BFS (§II-B: "other
//     workloads exhibit similar behavior"); SSSP is the most
//     bandwidth-bound of the suite (MPKI 73), CC milder.
//   - Masstree: uniform key popularity and 50/50 read/write (§IV-E), so
//     nearly the whole keyspace is touched by every socket; accesses
//     still concentrate on the shared trie index (every lookup walks
//     it). The paper measures 100% of its migrations going to the pool
//     (Table IV).
//   - TPCC: warehouse-partitioned locality plus globally shared
//     stock/item/order tables; 93% of migrations to the pool.
//   - FMI: a shared read-mostly FM-index plus private query state; only
//     47% of migrations target the pool.
//   - POA: completely NUMA-insensitive — all accesses local after
//     first-touch (§V-A), zero migrations.
//
// MLP values are the calibration knob reconciling Table III's
// single-socket IPC with its MPKI under the MLP-limited core model (see
// Spec.ZeroLoadIPC); graph/pointer-chasing codes overlap few misses,
// streaming and bandwidth-bound codes many.

// DefaultFootprintPages returns the scaled default footprint of each
// workload, ordered as in suiteSpecs.
const (
	graphPages    = 32768 // 128 MB: GAP Kronecker graph, scaled from ~50 GB
	masstreePages = 49152 // 192 MB: 100 GB KV dataset, scaled
	tpccPages     = 12288 // 48 MB: 12 GB TPCC footprint, scaled
	genomicsPages = 8192  // 32 MB: ~10 GB GenomicsBench footprints, scaled
)

func suiteSpecs() []Spec {
	return []Spec{
		{
			Name: "SSSP", SingleSocketIPC: 0.56, MPKI: 73, MLP: 6,
			FootprintPages: graphPages, Seed: 0x55501,
			Classes: []PageClass{
				{Name: "private", PageShare: 0.20, AccessShare: 0.16, MinSharers: 1, MaxSharers: 1, WriteFrac: 0.18},
				{Name: "low", PageShare: 0.55, AccessShare: 0.20, MinSharers: 2, MaxSharers: 4, WriteFrac: 0.15},
				{Name: "mid", PageShare: 0.15, AccessShare: 0.08, MinSharers: 5, MaxSharers: 8, WriteFrac: 0.15},
				{Name: "high", PageShare: 0.07, AccessShare: 0.26, MinSharers: 9, MaxSharers: 15, WriteFrac: 0.18},
				{Name: "global", PageShare: 0.03, AccessShare: 0.30, MinSharers: 16, MaxSharers: 16, WriteFrac: 0.20},
			},
		},
		{
			Name: "BFS", SingleSocketIPC: 0.69, MPKI: 32, MLP: 4,
			FootprintPages: graphPages, Seed: 0xBF501,
			Classes: []PageClass{
				{Name: "private", PageShare: 0.17, AccessShare: 0.10, MinSharers: 1, MaxSharers: 1, WriteFrac: 0.15},
				{Name: "low", PageShare: 0.61, AccessShare: 0.15, MinSharers: 2, MaxSharers: 4, WriteFrac: 0.12},
				{Name: "mid", PageShare: 0.15, AccessShare: 0.07, MinSharers: 5, MaxSharers: 8, WriteFrac: 0.12},
				{Name: "high", PageShare: 0.05, AccessShare: 0.32, MinSharers: 9, MaxSharers: 15, WriteFrac: 0.15},
				{Name: "global", PageShare: 0.02, AccessShare: 0.36, MinSharers: 16, MaxSharers: 16, WriteFrac: 0.18},
			},
		},
		{
			Name: "CC", SingleSocketIPC: 0.78, MPKI: 17, MLP: 4,
			FootprintPages: graphPages, Seed: 0xCC001,
			Classes: []PageClass{
				{Name: "private", PageShare: 0.25, AccessShare: 0.15, MinSharers: 1, MaxSharers: 1, WriteFrac: 0.12},
				{Name: "low", PageShare: 0.55, AccessShare: 0.20, MinSharers: 2, MaxSharers: 4, WriteFrac: 0.10},
				{Name: "mid", PageShare: 0.12, AccessShare: 0.10, MinSharers: 5, MaxSharers: 8, WriteFrac: 0.12},
				{Name: "high", PageShare: 0.06, AccessShare: 0.25, MinSharers: 9, MaxSharers: 15, WriteFrac: 0.15},
				{Name: "global", PageShare: 0.02, AccessShare: 0.30, MinSharers: 16, MaxSharers: 16, WriteFrac: 0.15},
			},
		},
		{
			Name: "TC", SingleSocketIPC: 1.7, MPKI: 3.2, MLP: 2,
			FootprintPages: graphPages, Seed: 0x7C001,
			Classes: []PageClass{
				{Name: "private", PageShare: 0.07, AccessShare: 0.05, MinSharers: 1, MaxSharers: 1, WriteFrac: 0.05},
				{Name: "low", PageShare: 0.08, AccessShare: 0.05, MinSharers: 2, MaxSharers: 4, WriteFrac: 0.02},
				{Name: "mid", PageShare: 0.05, AccessShare: 0.04, MinSharers: 5, MaxSharers: 7, WriteFrac: 0.02},
				{Name: "high", PageShare: 0.20, AccessShare: 0.18, MinSharers: 8, MaxSharers: 15, WriteFrac: 0.02},
				{Name: "globalHot", PageShare: 0.06, AccessShare: 0.55, MinSharers: 16, MaxSharers: 16, WriteFrac: 0.02},
				{Name: "globalCold", PageShare: 0.54, AccessShare: 0.13, MinSharers: 16, MaxSharers: 16, WriteFrac: 0.02},
			},
		},
		{
			Name: "Masstree", SingleSocketIPC: 0.89, MPKI: 15, MLP: 4,
			FootprintPages: masstreePages, Seed: 0x3A501,
			Classes: []PageClass{
				{Name: "private", PageShare: 0.15, AccessShare: 0.20, MinSharers: 1, MaxSharers: 1, WriteFrac: 0.50},
				{Name: "index", PageShare: 0.04, AccessShare: 0.42, MinSharers: 16, MaxSharers: 16, WriteFrac: 0.30},
				{Name: "data", PageShare: 0.81, AccessShare: 0.38, MinSharers: 16, MaxSharers: 16, WriteFrac: 0.50},
			},
		},
		{
			Name: "TPCC", SingleSocketIPC: 1.12, MPKI: 4.8, MLP: 3,
			FootprintPages: tpccPages, Seed: 0x79CC1,
			Classes: []PageClass{
				{Name: "private", PageShare: 0.55, AccessShare: 0.45, MinSharers: 1, MaxSharers: 1, WriteFrac: 0.45},
				{Name: "low", PageShare: 0.15, AccessShare: 0.10, MinSharers: 2, MaxSharers: 4, WriteFrac: 0.30},
				{Name: "high", PageShare: 0.10, AccessShare: 0.15, MinSharers: 9, MaxSharers: 15, WriteFrac: 0.40},
				{Name: "global", PageShare: 0.20, AccessShare: 0.30, MinSharers: 16, MaxSharers: 16, WriteFrac: 0.50},
			},
		},
		{
			Name: "FMI", SingleSocketIPC: 1.45, MPKI: 2.6, MLP: 2,
			FootprintPages: genomicsPages, Seed: 0xF3101,
			Classes: []PageClass{
				{Name: "private", PageShare: 0.40, AccessShare: 0.25, MinSharers: 1, MaxSharers: 1, WriteFrac: 0.10},
				{Name: "mid", PageShare: 0.30, AccessShare: 0.25, MinSharers: 4, MaxSharers: 8, WriteFrac: 0.02},
				{Name: "index", PageShare: 0.08, AccessShare: 0.35, MinSharers: 12, MaxSharers: 16, WriteFrac: 0.02},
				{Name: "global", PageShare: 0.22, AccessShare: 0.15, MinSharers: 12, MaxSharers: 16, WriteFrac: 0.02},
			},
		},
		{
			Name: "POA", SingleSocketIPC: 0.68, MPKI: 33, MLP: 6,
			FootprintPages: genomicsPages, Seed: 0x90A01,
			Classes: []PageClass{
				{Name: "private", PageShare: 1.00, AccessShare: 1.00, MinSharers: 1, MaxSharers: 1, WriteFrac: 0.35},
			},
		},
	}
}

// Suite returns the eight-workload suite with footprints multiplied by
// scale (0 < scale ≤ 1 shrinks footprints for quick runs; values above 1
// grow them). Ordering matches Table III: SSSP, BFS, CC, TC, Masstree,
// TPCC, FMI, POA.
func Suite(scale float64) []Spec {
	if scale <= 0 {
		panic(fmt.Sprintf("workload: non-positive scale %v", scale))
	}
	specs := suiteSpecs()
	for i := range specs {
		fp := int(float64(specs[i].FootprintPages) * scale)
		if fp < 1024 {
			fp = 1024
		}
		specs[i].FootprintPages = fp
	}
	return specs
}

// ByName returns the named workload at the given footprint scale. It
// returns an error when the scaled spec is invalid, such as a scale so
// large the footprint exceeds MaxFootprintPages.
func ByName(name string, scale float64) (Spec, error) {
	if scale <= 0 {
		return Spec{}, fmt.Errorf("workload: non-positive scale %v", scale)
	}
	for _, s := range Suite(scale) {
		if s.Name == name {
			// Suite specs are authored for 16 sockets, as NewGenerator
			// validates them.
			if err := s.Validate(16); err != nil {
				return Spec{}, err
			}
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("workload: unknown workload %q", name)
}

// Names lists the suite's workload names in canonical order.
func Names() []string {
	specs := suiteSpecs()
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}
