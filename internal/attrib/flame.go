package attrib

import (
	"encoding/json"
	"fmt"
	"strings"
)

// RenderFolded renders the runs as folded stacks — the
// flamegraph.pl / speedscope-importable text format: one line per
// (workload;socket;category) stack with its total picosecond weight,
// in run → socket → category order so output is deterministic.
func RenderFolded(runs []Run) string {
	var b strings.Builder
	for i := range runs {
		r := &runs[i]
		p := r.Profile
		nc := len(p.Categories)
		for s := 0; s < p.Sockets; s++ {
			for c := 0; c < nc; c++ {
				var sum int64
				for _, w := range p.Windows {
					sum += w.Cells[s*nc+c]
				}
				if sum == 0 {
					continue
				}
				fmt.Fprintf(&b, "%s;socket%d;%s %d\n", r.Workload, s, p.Categories[c], sum)
			}
		}
	}
	return b.String()
}

// Speedscope file-format structures (sampled profile flavour); see
// https://www.speedscope.app/file-format-schema.json.
type speedscopeFile struct {
	Schema   string              `json:"$schema"`
	Shared   speedscopeShared    `json:"shared"`
	Profiles []speedscopeProfile `json:"profiles"`
	Name     string              `json:"name"`
}

type speedscopeShared struct {
	Frames []speedscopeFrame `json:"frames"`
}

type speedscopeFrame struct {
	Name string `json:"name"`
}

type speedscopeProfile struct {
	Type       string    `json:"type"`
	Name       string    `json:"name"`
	Unit       string    `json:"unit"`
	StartValue float64   `json:"startValue"`
	EndValue   float64   `json:"endValue"`
	Samples    [][]int   `json:"samples"`
	Weights    []float64 `json:"weights"`
}

// RenderSpeedscope renders the runs as a speedscope sampled profile:
// one profile per run, stacks workload → socket → category, weights in
// nanoseconds. The frame table and sample order are deterministic (runs
// in the given order, cells in socket-major order).
func RenderSpeedscope(runs []Run) ([]byte, error) {
	var frames []speedscopeFrame
	frameIdx := func(name string) int {
		for i, f := range frames {
			if f.Name == name {
				return i
			}
		}
		frames = append(frames, speedscopeFrame{Name: name})
		return len(frames) - 1
	}
	file := speedscopeFile{
		Schema: "https://www.speedscope.app/file-format-schema.json",
		Name:   "starnuma stall attribution",
	}
	for i := range runs {
		r := &runs[i]
		p := r.Profile
		nc := len(p.Categories)
		prof := speedscopeProfile{
			Type: "sampled",
			Name: fmt.Sprintf("%s/%s (%s)", r.Workload, r.Policy, r.Key),
			Unit: "nanoseconds",
		}
		wlFrame := frameIdx(r.Workload)
		for s := 0; s < p.Sockets; s++ {
			sockFrame := frameIdx(fmt.Sprintf("socket%d", s))
			for c := 0; c < nc; c++ {
				var sum int64
				for _, w := range p.Windows {
					sum += w.Cells[s*nc+c]
				}
				if sum == 0 {
					continue
				}
				catFrame := frameIdx(p.Categories[c])
				prof.Samples = append(prof.Samples, []int{wlFrame, sockFrame, catFrame})
				prof.Weights = append(prof.Weights, float64(sum)/1000)
			}
		}
		for _, w := range prof.Weights {
			prof.EndValue += w
		}
		if prof.Samples == nil {
			prof.Samples = [][]int{}
			prof.Weights = []float64{}
		}
		file.Profiles = append(file.Profiles, prof)
	}
	file.Shared.Frames = frames
	if file.Shared.Frames == nil {
		file.Shared.Frames = []speedscopeFrame{}
	}
	if file.Profiles == nil {
		file.Profiles = []speedscopeProfile{}
	}
	b, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
