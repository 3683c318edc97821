package main

import (
	"encoding/json"
	"os"
	"time"
)

// tracedReport is a traced pass's output: stage spans summed per layer,
// the run digests, and the component replays.
type tracedReport struct {
	SetupS           float64                    `json:"setup_s"`
	RecordS          float64                    `json:"record_s"`
	RecordedAccesses int64                      `json:"recorded_accesses"`
	PipelineS        float64                    `json:"pipeline_s"`
	PlanS            float64                    `json:"plan_s"`
	Plans            int                        `json:"plans"`
	PlanMSP50        float64                    `json:"plan_ms_p50"`
	WindowS          float64                    `json:"window_s"`
	Windows          int                        `json:"windows"`
	WindowMSP50      float64                    `json:"window_ms_p50"`
	Misses           uint64                     `json:"misses"`
	AssembleMS       float64                    `json:"assemble_ms"`
	Digests          []string                   `json:"digests"`
	Components       map[string]componentResult `json:"components"`
	// ReplayMismatches lists replays whose counts changed across repeats.
	ReplayMismatches []string `json:"replay_mismatches"`
}

func tracedPass(b *batch, spansPath string) (*tracedReport, error) {
	rep := &tracedReport{}
	tr := newTracer()
	t0 := time.Now()
	n, err := setup(b, tr)
	if err != nil {
		return nil, err
	}
	rep.SetupS = time.Since(t0).Seconds()
	rep.RecordedAccesses = n
	rec, _ := tr.total("workload.record")
	rep.RecordS = rec / 1e3

	t0 = time.Now()
	o := runTraced(b, tr)
	rep.PipelineS = time.Since(t0).Seconds()
	o.digest()
	rep.Digests = o.digests
	rep.Misses = o.misses

	plan, plans := tr.total("core.plan")
	rep.PlanS, rep.Plans = plan/1e3, plans
	rep.PlanMSP50 = median(tr.durations("core.plan"))
	win, wins := tr.total("core.window")
	rep.WindowS, rep.Windows = win/1e3, wins
	rep.WindowMSP50 = median(tr.durations("core.window"))
	rep.AssembleMS, _ = tr.total("core.assemble")

	rep.Components, rep.ReplayMismatches, err = replayComponents(b, o.plans)
	if err != nil {
		return nil, err
	}

	if spansPath != "" {
		f, err := os.Create(spansPath)
		if err != nil {
			return nil, err
		}
		if err := json.NewEncoder(f).Encode(tr.spans); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
	}
	return rep, nil
}
