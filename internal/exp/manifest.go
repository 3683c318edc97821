package exp

import (
	"encoding/json"
	"fmt"
	"os"

	"starnuma/internal/attrib"
	"starnuma/internal/core"
	"starnuma/internal/metrics"
)

// ManifestSchema versions the run-manifest document; bump on
// incompatible shape changes.
const ManifestSchema = "starnuma-run-manifest-v1"

// ManifestRun is one simulated (variant, workload) pair of a manifest:
// its memo key, headline results, and, when the run was instrumented,
// its metrics snapshot and stall-attribution profile.
type ManifestRun struct {
	// Key is the runner's memo key, "variant|workload".
	Key      string            `json:"key"`
	Workload string            `json:"workload"`
	Policy   string            `json:"policy"`
	Tracker  string            `json:"tracker"`
	IPC      float64           `json:"ipc"`
	MPKI     float64           `json:"mpki"`
	Metrics  *metrics.Snapshot `json:"metrics,omitempty"`
	Profile  *attrib.Profile   `json:"profile,omitempty"`
}

// Manifest is the -metrics output document: every simulation the
// experiment runner executed (or recalled), in sorted key order so the
// encoding is deterministic.
type Manifest struct {
	Schema string        `json:"schema"`
	Scale  float64       `json:"scale"`
	Phases int           `json:"phases"`
	Jobs   int           `json:"jobs"`
	Runs   []ManifestRun `json:"runs"`
}

// Manifest snapshots the runner's memoised results. Runs are sorted by
// memo key, so identical run sets encode byte-identically.
func (r *Runner) Manifest() *Manifest {
	m := &Manifest{
		Schema: ManifestSchema,
		Scale:  r.opts.Scale,
		Phases: r.opts.Sim.Phases,
		Jobs:   r.exec.Jobs(),
	}
	for _, run := range r.memoRuns() {
		m.Runs = append(m.Runs, NewManifestRun(run.key, run.res))
	}
	return m
}

// NewManifestRun labels one result with key as a manifest run.
func NewManifestRun(key string, res *core.Result) ManifestRun {
	return ManifestRun{
		Key:      key,
		Workload: res.Workload,
		Policy:   res.Policy.String(),
		Tracker:  res.Tracker,
		IPC:      res.IPC,
		MPKI:     res.MPKI,
		Metrics:  res.Metrics,
		Profile:  res.Profile,
	}
}

// WriteManifest writes the runner's manifest as indented JSON to path.
func (r *Runner) WriteManifest(path string) error {
	b, err := json.MarshalIndent(r.Manifest(), "", "  ")
	if err != nil {
		return fmt.Errorf("exp: manifest: %w", err)
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
