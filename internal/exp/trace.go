package exp

import (
	"fmt"
	"os"
	"strings"

	"starnuma/internal/evtrace"
)

// WriteTrace assembles every memoised run's event-trace buffer, plus
// the wall-clock runner lane NewRunner recorded, into one Chrome
// trace_event JSON document at Options.Trace. Each run's lanes are
// prefixed "variant/workload" (the memo key with "|" replaced), so all
// simulations coexist on one Perfetto timeline.
// No-op when Options.Trace is empty.
func (r *Runner) WriteTrace() error {
	path := r.opts.Trace
	if path == "" {
		return nil
	}
	bd := evtrace.NewBuilder()
	for _, run := range r.memoRuns() {
		bd.Add(strings.ReplaceAll(run.key, "|", "/"), run.res.Trace)
	}
	bd.Add("", r.wall.Buffer())
	tr := bd.Build()
	if err := tr.Validate(); err != nil {
		return fmt.Errorf("exp: trace: %w", err)
	}
	b, err := tr.Encode()
	if err != nil {
		return fmt.Errorf("exp: trace: %w", err)
	}
	return os.WriteFile(path, b, 0o644)
}
