package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"starnuma/internal/core"
	"starnuma/internal/exp"
	"starnuma/internal/metrics"
)

var metricsGroup = group{
	name:    "metrics",
	summary: "inspect the instrumentation of runs collected with -metrics",
	notes: `FILE may be a run manifest written by -metrics, a result-cache entry
(.starnuma-cache/*.json), or a bare JSON-encoded core.Result. Metrics
print in sorted name order, so two identical runs diff empty.
`,
	cmds: []command{
		{"dump", "FILE", "full metric dump, one section per run", metricsDump},
		{"diff", "FILE FILE2", "metric-by-metric comparison", metricsDiff},
		{"top", "[-n N] FILE", "hottest interconnect links by wire occupancy", metricsTop},
	},
}

func metricsDump(fs *flag.FlagSet, args []string) error {
	docs, err := loadRuns(fs, args, 1, 1)
	if err != nil {
		return err
	}
	fmt.Print(dumpText(docs[0]))
	return nil
}

func metricsDiff(fs *flag.FlagSet, args []string) error {
	docs, err := loadRuns(fs, args, 2, 2)
	if err != nil {
		return err
	}
	fmt.Print(diffText(combined(docs[0]), combined(docs[1])))
	return nil
}

func metricsTop(fs *flag.FlagSet, args []string) error {
	n := fs.Int("n", 10, "number of links to show")
	docs, err := loadRuns(fs, args, 1, 1)
	if err != nil {
		return err
	}
	fmt.Print(topText(combined(docs[0]), *n))
	return nil
}

// loadRuns parses a command's flags and decodes its min to max
// document arguments.
func loadRuns(fs *flag.FlagSet, args []string, min, max int) ([][]exp.ManifestRun, error) {
	if err := parse(fs, args, min, max); err != nil {
		return nil, err
	}
	var docs [][]exp.ManifestRun
	for _, path := range fs.Args() {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		runs, err := decodeRuns(b, path)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		docs = append(docs, runs)
	}
	return docs, nil
}

// decodeRuns reads the runs of a JSON document of any of the three
// shapes the metrics and prof commands accept: an exp run manifest, a
// runner cache entry, or a bare core.Result. name labels results that
// carry no key of their own. Every run must have a key and every stall
// profile must pass Profile.Validate, so a corrupt document fails here
// instead of in a renderer.
func decodeRuns(b []byte, name string) ([]exp.ManifestRun, error) {
	var probe struct {
		Schema  string          `json:"schema"`
		Version string          `json:"version"`
		Key     string          `json:"key"`
		Result  json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(b, &probe); err != nil {
		return nil, fmt.Errorf("not a JSON document: %w", err)
	}
	var runs []exp.ManifestRun
	switch {
	case probe.Schema != "":
		if probe.Schema != exp.ManifestSchema {
			return nil, fmt.Errorf("unknown manifest schema %q (want %q)", probe.Schema, exp.ManifestSchema)
		}
		var m exp.Manifest
		if err := json.Unmarshal(b, &m); err != nil {
			return nil, fmt.Errorf("manifest: %w", err)
		}
		runs = m.Runs
	default:
		// A cache entry wraps its Result beside its key; a bare Result
		// is labelled by its workload.
		raw := b
		if probe.Result != nil {
			raw = probe.Result
		}
		var res core.Result
		if err := json.Unmarshal(raw, &res); err != nil {
			return nil, fmt.Errorf("result: %w", err)
		}
		label := probe.Key
		if probe.Result == nil {
			label = res.Workload
		}
		if label == "" {
			label = name
		}
		runs = []exp.ManifestRun{exp.NewManifestRun(label, &res)}
	}
	for i, r := range runs {
		if r.Key == "" {
			return nil, fmt.Errorf("run %d has no key", i)
		}
		if r.Profile != nil {
			if err := r.Profile.Validate(); err != nil {
				return nil, fmt.Errorf("run %s: %w", r.Key, err)
			}
		}
	}
	return runs, nil
}

// combined merges every run's snapshot (in listed order) into one.
func combined(runs []exp.ManifestRun) *metrics.Snapshot {
	s := &metrics.Snapshot{}
	for _, r := range runs {
		s.Merge(r.Metrics)
	}
	return s
}

// dumpText renders every run's full metric dump, one section per run.
func dumpText(runs []exp.ManifestRun) string {
	var b strings.Builder
	for _, r := range runs {
		fmt.Fprintf(&b, "== %s ==\n", r.Key)
		if r.Metrics.Empty() {
			b.WriteString("(no metrics; run with -metrics to collect)\n")
		} else {
			b.WriteString(r.Metrics.Dump())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// diffText compares two combined snapshots metric by metric, reporting
// only entries that differ; a metric on one side only shows "-" for the
// other.
func diffText(a, b *metrics.Snapshot) string {
	var out strings.Builder
	names := union(a.Names(), b.Names())
	for _, n := range names {
		av, aok := lookupValue(a, n)
		bv, bok := lookupValue(b, n)
		if aok && bok && av == bv {
			continue
		}
		as, bs := "-", "-"
		if aok {
			as = av
		}
		if bok {
			bs = bv
		}
		fmt.Fprintf(&out, "%-48s %20s -> %s\n", n, as, bs)
	}
	if out.Len() == 0 {
		return "no differences\n"
	}
	return out.String()
}

// lookupValue renders metric n's value in s, whichever section holds it.
func lookupValue(s *metrics.Snapshot, n string) (string, bool) {
	if s == nil {
		return "", false
	}
	if v, ok := s.Counters[n]; ok {
		return fmt.Sprintf("%d", v), true
	}
	if h, ok := s.Histograms[n]; ok {
		return fmt.Sprintf("count=%d mean=%.3f", h.Count, h.Mean()), true
	}
	if p, ok := s.Series[n]; ok {
		return fmt.Sprintf("%d points", len(p)), true
	}
	return "", false
}

// union merges two sorted name lists, deduplicated.
func union(a, b []string) []string {
	seen := make(map[string]bool, len(a)+len(b))
	var out []string
	for _, n := range append(append([]string{}, a...), b...) {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// topText ranks the interconnect links of a combined snapshot by wire
// occupancy ("link/.../busy_ps" counters), hottest first.
func topText(s *metrics.Snapshot, n int) string {
	type hot struct {
		name string
		busy uint64
	}
	var links []hot
	for _, k := range s.Names() {
		if strings.HasPrefix(k, "link/") && strings.HasSuffix(k, "/busy_ps") {
			links = append(links, hot{name: strings.TrimSuffix(k, "/busy_ps"), busy: s.Counters[k]})
		}
	}
	sort.SliceStable(links, func(i, j int) bool {
		if links[i].busy != links[j].busy {
			return links[i].busy > links[j].busy
		}
		return links[i].name < links[j].name
	})
	if len(links) == 0 {
		return "no link metrics (run with -metrics to collect)\n"
	}
	if n > 0 && len(links) > n {
		links = links[:n]
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-40s %14s %14s %14s %10s\n", "link", "busy_ps", "queued_ps", "tx_bytes", "messages")
	for _, l := range links {
		fmt.Fprintf(&b, "%-40s %14d %14d %14d %10d\n", l.name, l.busy,
			s.Counters[l.name+"/queued_ps"], s.Counters[l.name+"/tx_bytes"], s.Counters[l.name+"/messages"])
	}
	return b.String()
}
