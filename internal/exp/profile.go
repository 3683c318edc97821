package exp

import (
	"fmt"
	"os"

	"starnuma/internal/attrib"
)

// StallProfiles snapshots the stall-attribution profiles of the
// runner's memoised results as a prof document. Runs without a profile
// (attribution off, or recalled from an attribution-off cache entry)
// are skipped; the document sorts by memo key so identical run sets
// encode byte-identically.
func (r *Runner) StallProfiles() *attrib.Doc {
	d := &attrib.Doc{Schema: attrib.DocSchema}
	for _, run := range r.memoRuns() {
		if run.res.Profile == nil {
			continue
		}
		d.Runs = append(d.Runs, attrib.DocRun{
			Key:      run.key,
			Workload: run.res.Workload,
			Policy:   run.res.Policy.String(),
			Profile:  run.res.Profile,
		})
	}
	return d
}

// WriteStallProfiles writes the runner's stall-attribution document
// (the -attrib output) as indented JSON to path.
func (r *Runner) WriteStallProfiles(path string) error {
	b, err := r.StallProfiles().Encode()
	if err != nil {
		return fmt.Errorf("exp: stall profiles: %w", err)
	}
	return os.WriteFile(path, b, 0o644)
}
