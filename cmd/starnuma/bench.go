package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	rtmetrics "runtime/metrics"
	"syscall"
)

// benchReport is the -benchjson document: written by the experiment
// loop, read by `starnuma bench gate`. WindowsPerSec is the run's
// overall step-C throughput — the headline number docs/PERFORMANCE.md's
// methodology tracks and CI gates on; it is only meaningful for
// cache-disabled runs (windows_done is 0 on a full cache hit).
// StreamCacheBytes and PeakRSSMB record what the run held in memory:
// the phase-stream cache's resident bytes at the end of the run and
// the process's peak resident set. StreamCacheEvictions counts the
// streams the cache dropped for want of room, each of which costs a
// re-recording if it is read again. StreamRecordings counts the phase
// streams generators recorded, each a whole phase drawn on a cache
// miss. GCCycles and GCCPUSeconds are the process's completed
// collections and the CPU time its collector used (runtime/metrics
// estimates it). The gate reads none of these six.
type benchReport struct {
	Timestamp            string            `json:"timestamp"`
	Quick                bool              `json:"quick"`
	Scale                float64           `json:"scale"`
	Jobs                 int               `json:"jobs"`
	SuiteSeconds         float64           `json:"suite_seconds"`
	CacheHits            int64             `json:"cache_hits"`
	CacheMisses          int64             `json:"cache_misses"`
	WindowsDone          int64             `json:"windows_done"`
	WindowsPerSec        float64           `json:"windows_per_sec"`
	WindowMemoHits       int64             `json:"window_memo_hits"`
	IngestMemoHits       int64             `json:"ingest_memo_hits"`
	StreamCacheBytes     int64             `json:"stream_cache_bytes"`
	StreamCacheEvictions int64             `json:"stream_cache_evictions"`
	StreamRecordings     int64             `json:"stream_recordings"`
	PeakRSSMB            float64           `json:"peak_rss_mb"`
	GCCycles             uint64            `json:"gc_cycles"`
	GCCPUSeconds         float64           `json:"gc_cpu_s"`
	Experiments          []benchExperiment `json:"experiments"`
}

// benchExperiment is one per-experiment timing record. Windows counts
// the step-C window jobs the experiment completed, whether simulated or
// recalled from the window memo (WindowMemoHits of them were recalled),
// and WindowsPerSec is the throughput those windows achieved.
// IngestMemoHits counts the step-B phase ingests restored from the
// ingest memo instead of walked. Experiments whose runs all came from
// the in-suite memo or the result cache run no windows; their Windows
// is 0 and WindowsPerSec is omitted rather than written as a misleading
// 0, and the gate skips them.
type benchExperiment struct {
	ID             string  `json:"id"`
	Seconds        float64 `json:"seconds"`
	Windows        int64   `json:"windows"`
	WindowsPerSec  float64 `json:"windows_per_sec,omitempty"`
	WindowMemoHits int64   `json:"window_memo_hits"`
	IngestMemoHits int64   `json:"ingest_memo_hits"`
}

// peakRSSMB returns the process's peak resident set size (ru_maxrss,
// kilobytes on Linux) in MiB, or 0 when it cannot be read.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// gcTotals returns the process's completed GC cycles and its
// collector's CPU seconds so far.
func gcTotals() (cycles uint64, cpuS float64) {
	s := []rtmetrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/cpu/classes/gc/total:cpu-seconds"}}
	rtmetrics.Read(s)
	if s[0].Value.Kind() == rtmetrics.KindUint64 {
		cycles = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == rtmetrics.KindFloat64 {
		cpuS = s[1].Value.Float64()
	}
	return cycles, cpuS
}

func (b *benchReport) write(path string) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readBenchReport(path string) (benchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return benchReport{}, err
	}
	var r benchReport
	if err := json.Unmarshal(data, &r); err != nil {
		return benchReport{}, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

var benchGroup = group{
	name:    "bench",
	summary: "gate -benchjson timing reports against a committed baseline",
	notes: `Both reports must come from cache-disabled runs: a cache hit does no
step-C work, so zero-window reports are rejected (exit 2) rather than
passed. docs/PERFORMANCE.md documents the measurement protocol.
`,
	cmds: []command{
		{"gate", "[-max-drop F] [-warn-gain F] [-max-exp-drop F] baseline.json fresh.json",
			"fail (exit 3) when windows/sec dropped below the baseline beyond tolerance", benchGate},
	},
}

// benchGate compares a fresh report's overall windows_per_sec against
// the baseline's. It fails on a drop beyond -max-drop and warns on
// stderr on a gain beyond -warn-gain — a sign the committed baseline is
// stale and should be regenerated so the gate keeps teeth. It also
// lines up the per-experiment entries and prints each one's delta;
// -max-exp-drop (off by default) turns a per-experiment drop beyond the
// fraction into a failure too.
func benchGate(fs *flag.FlagSet, args []string) error {
	maxDrop := fs.Float64("max-drop", 0.10, "fail when windows/sec drops more than this fraction below baseline")
	warnGain := fs.Float64("warn-gain", 0.10, "warn when windows/sec exceeds baseline by more than this fraction")
	maxExpDrop := fs.Float64("max-exp-drop", 0, "also fail when any single experiment drops more than this fraction (0 = report only)")
	if err := parse(fs, args, 2, 2); err != nil {
		return err
	}
	var rates [2]float64
	var reports [2]benchReport
	for i, path := range fs.Args() {
		r, err := readBenchReport(path)
		if err != nil {
			return &exitError{exitUsage, err}
		}
		if rates[i], err = throughput(r); err != nil {
			return &exitError{exitUsage, fmt.Errorf("%s: %w", path, err)}
		}
		reports[i] = r
	}
	failed, warn, summary := verdict(rates[0], rates[1], *maxDrop, *warnGain)
	fmt.Println(summary)
	lines, skipped, expFailed := compareExperiments(reports[0], reports[1], *maxExpDrop)
	for _, l := range lines {
		fmt.Println(l)
	}
	if skipped > 0 {
		fmt.Printf("  (%d zero-window experiments skipped)\n", skipped)
	}
	prog := fs.Name()
	if warn != "" {
		fmt.Fprintf(os.Stderr, "%s: warning: %s\n", prog, warn)
	}
	if failed {
		fmt.Fprintf(os.Stderr, "%s: FAIL: throughput dropped more than %.0f%% below baseline\n", prog, *maxDrop*100)
	}
	if expFailed {
		fmt.Fprintf(os.Stderr, "%s: FAIL: an experiment dropped more than %.0f%% below baseline\n", prog, *maxExpDrop*100)
	}
	if failed || expFailed {
		return &exitError{exitAssertion, nil}
	}
	return nil
}

// throughput returns the report's overall windows/sec, rejecting
// reports that measured nothing.
func throughput(r benchReport) (float64, error) {
	if r.WindowsDone <= 0 {
		return 0, fmt.Errorf("report has no simulated windows (cache-enabled run?)")
	}
	if r.SuiteSeconds <= 0 {
		return 0, fmt.Errorf("report has non-positive suite_seconds %v", r.SuiteSeconds)
	}
	if r.WindowsPerSec <= 0 {
		return 0, fmt.Errorf("report has non-positive windows_per_sec %v", r.WindowsPerSec)
	}
	return r.WindowsPerSec, nil
}

// verdict compares fresh against base throughput. fail means the gate
// should exit non-zero; warn carries a non-fatal staleness message.
func verdict(base, fresh, maxDrop, warnGain float64) (fail bool, warn string, summary string) {
	delta := fresh/base - 1
	summary = fmt.Sprintf("windows/sec: baseline %.2f, fresh %.2f (%+.1f%%)", base, fresh, delta*100)
	if delta < -maxDrop {
		return true, "", summary
	}
	if delta > warnGain {
		warn = fmt.Sprintf("fresh throughput is %.1f%% above the committed baseline; "+
			"regenerate the baseline so future regressions are measured against it", delta*100)
	}
	return false, warn, summary
}

// compareExperiments lines up the two reports' per-experiment entries
// by ID and reports each delta. Entries with zero windows on either
// side are skipped — not treated as infinitely slow or malformed — and
// counted instead. When maxExpDrop > 0, any compared experiment whose
// throughput dropped more than that fraction fails the gate.
func compareExperiments(base, fresh benchReport, maxExpDrop float64) (lines []string, skipped int, fail bool) {
	bySrc := make(map[string]benchExperiment, len(base.Experiments))
	for _, e := range base.Experiments {
		bySrc[e.ID] = e
	}
	for _, f := range fresh.Experiments {
		b, ok := bySrc[f.ID]
		if !ok {
			continue
		}
		if b.Windows == 0 || f.Windows == 0 || b.WindowsPerSec <= 0 || f.WindowsPerSec <= 0 {
			skipped++
			continue
		}
		delta := f.WindowsPerSec/b.WindowsPerSec - 1
		mark := ""
		if maxExpDrop > 0 && delta < -maxExpDrop {
			mark = "  REGRESSED"
			fail = true
		}
		lines = append(lines, fmt.Sprintf("  %-12s baseline %8.2f, fresh %8.2f (%+.1f%%)%s",
			f.ID, b.WindowsPerSec, f.WindowsPerSec, delta*100, mark))
	}
	return lines, skipped, fail
}
