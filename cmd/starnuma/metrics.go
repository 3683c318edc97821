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
	docs, err := loadRuns(fs, args, 1)
	if err != nil {
		return err
	}
	fmt.Print(dumpText(docs[0]))
	return nil
}

func metricsDiff(fs *flag.FlagSet, args []string) error {
	docs, err := loadRuns(fs, args, 2)
	if err != nil {
		return err
	}
	fmt.Print(diffText(combined(docs[0]), combined(docs[1])))
	return nil
}

func metricsTop(fs *flag.FlagSet, args []string) error {
	n := fs.Int("n", 10, "number of links to show")
	docs, err := loadRuns(fs, args, 1)
	if err != nil {
		return err
	}
	fmt.Print(topText(combined(docs[0]), *n))
	return nil
}

// loadRuns parses a command's flags and decodes its n document
// arguments.
func loadRuns(fs *flag.FlagSet, args []string, n int) ([][]namedSnapshot, error) {
	if err := parse(fs, args, n, n); err != nil {
		return nil, err
	}
	var docs [][]namedSnapshot
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

// namedSnapshot is one run's instrumentation with a display name.
type namedSnapshot struct {
	Name string
	Snap *metrics.Snapshot
}

// decodeRuns extracts the metric snapshots from a JSON document of any
// of the three shapes the metrics commands accept: an exp run manifest,
// a runner cache entry, or a bare core.Result. name labels bare results
// that carry no key of their own.
func decodeRuns(b []byte, name string) ([]namedSnapshot, error) {
	var probe struct {
		Schema  string          `json:"schema"`
		Version string          `json:"version"`
		Key     string          `json:"key"`
		Result  json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(b, &probe); err != nil {
		return nil, fmt.Errorf("not a JSON document: %w", err)
	}
	switch {
	case probe.Schema != "":
		if probe.Schema != exp.ManifestSchema {
			return nil, fmt.Errorf("unknown manifest schema %q (want %q)", probe.Schema, exp.ManifestSchema)
		}
		var m exp.Manifest
		if err := json.Unmarshal(b, &m); err != nil {
			return nil, fmt.Errorf("manifest: %w", err)
		}
		var out []namedSnapshot
		for _, r := range m.Runs {
			out = append(out, namedSnapshot{Name: r.Key, Snap: r.Metrics})
		}
		return out, nil
	case probe.Result != nil:
		var res core.Result
		if err := json.Unmarshal(probe.Result, &res); err != nil {
			return nil, fmt.Errorf("cache entry: %w", err)
		}
		label := probe.Key
		if label == "" {
			label = name
		}
		return []namedSnapshot{{Name: label, Snap: res.Metrics}}, nil
	default:
		var res core.Result
		if err := json.Unmarshal(b, &res); err != nil {
			return nil, fmt.Errorf("result: %w", err)
		}
		label := res.Workload
		if label == "" {
			label = name
		}
		return []namedSnapshot{{Name: label, Snap: res.Metrics}}, nil
	}
}

// combined merges every run's snapshot (in listed order) into one.
func combined(runs []namedSnapshot) *metrics.Snapshot {
	s := &metrics.Snapshot{}
	for _, r := range runs {
		s.Merge(r.Snap)
	}
	return s
}

// dumpText renders every run's full metric dump, one section per run.
func dumpText(runs []namedSnapshot) string {
	var b strings.Builder
	for _, r := range runs {
		fmt.Fprintf(&b, "== %s ==\n", r.Name)
		if r.Snap.Empty() {
			b.WriteString("(no metrics; run with -metrics to collect)\n")
		} else {
			b.WriteString(r.Snap.Dump())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// diffText compares two combined snapshots counter by counter and gauge
// by gauge, reporting only entries that differ. Metrics present on one
// side only show "-" for the missing side.
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
	if v, ok := s.Gauges[n]; ok {
		return fmt.Sprintf("%g", v), true
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
