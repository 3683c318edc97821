// Command expall runs the entire StarNUMA experiment suite and writes
// every table to stdout (and optionally a file), in the paper's order.
//
// Usage:
//
//	expall [-quick] [-scale 0.25] [-jobs N] [-o results.txt]
//	       [-nocache] [-cache DIR] [-benchjson BENCH_expall.json]
//	       [-metrics manifest.json] [-attrib profiles.json] [-faults plan.json]
//	       [-trace trace.json] [-cpuprofile cpu.pprof] [-pprof :6060]
//
// Experiments execute on internal/runner's parallel scheduler (-jobs
// worker slots, default GOMAXPROCS) with a persistent result cache
// under -cache (default .starnuma-cache; -nocache disables it).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"starnuma/internal/core"
	"starnuma/internal/exp"
	"starnuma/internal/prof"
)

// benchExperiment is one per-experiment timing record of -benchjson.
// Windows counts the step-C window jobs the experiment completed,
// whether simulated or recalled from the window memo (WindowMemoHits
// of them were recalled), and WindowsPerSec is the throughput those
// windows achieved. IngestMemoHits counts the step-B phase ingests
// restored from the ingest memo instead of walked. Experiments whose
// runs all came from the in-suite memo or the result cache run no
// windows; their Windows is 0 and WindowsPerSec is omitted rather than
// written as a misleading 0.
type benchExperiment struct {
	ID             string  `json:"id"`
	Seconds        float64 `json:"seconds"`
	Windows        int64   `json:"windows"`
	WindowsPerSec  float64 `json:"windows_per_sec,omitempty"`
	WindowMemoHits int64   `json:"window_memo_hits"`
	IngestMemoHits int64   `json:"ingest_memo_hits"`
}

// benchReport is the -benchjson document. WindowsPerSec is the suite's
// overall step-C throughput — the headline number docs/PERFORMANCE.md's
// methodology tracks and CI's bench-regress step gates on; it is only
// meaningful for cache-disabled runs (windows_done is 0 on a full
// cache hit).
type benchReport struct {
	Timestamp      string            `json:"timestamp"`
	Quick          bool              `json:"quick"`
	Scale          float64           `json:"scale"`
	Jobs           int               `json:"jobs"`
	SuiteSeconds   float64           `json:"suite_seconds"`
	CacheHits      int64             `json:"cache_hits"`
	CacheMisses    int64             `json:"cache_misses"`
	WindowsDone    int64             `json:"windows_done"`
	WindowsPerSec  float64           `json:"windows_per_sec"`
	WindowMemoHits int64             `json:"window_memo_hits"`
	IngestMemoHits int64             `json:"ingest_memo_hits"`
	Experiments    []benchExperiment `json:"experiments"`
}

func main() {
	var (
		out       = flag.String("o", "", "also write results to this file")
		format    = flag.String("format", "text", "output format: text, csv, md")
		benchJSON = flag.String("benchjson", "", "write suite/per-experiment timings to this JSON file")
	)
	cli := exp.AddCLIFlags(flag.CommandLine, true)
	pf := prof.AddFlags(flag.CommandLine)
	flag.Parse()
	stopProf, err := pf.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "expall: %v\n", err)
		os.Exit(1)
	}
	defer stopProf()

	opts, err := cli.Options(os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "expall: %v\n", err)
		os.Exit(1)
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "expall: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	start := time.Now()
	r := exp.NewRunner(opts)
	fmt.Fprintf(w, "StarNUMA reproduction — full experiment suite\n")
	fmt.Fprintf(w, "scale=%v phases=%d phaseInstr=%d timedInstr=%d jobs=%d\n\n",
		opts.Scale, opts.Sim.Phases, opts.Sim.PhaseInstr, opts.Sim.TimedInstr,
		r.Exec().Jobs())

	var timings []benchExperiment
	for _, id := range exp.IDs() {
		t0 := time.Now()
		prevWindows := r.Exec().Metrics().WindowsDone
		prevHits := core.WindowMemo().Hits
		prevIngestHits := core.IngestMemo().Hits
		table, err := r.ByID(id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "expall: %s: %v\n", id, err)
			os.Exit(1)
		}
		secs := time.Since(t0).Seconds()
		windows := r.Exec().Metrics().WindowsDone - prevWindows
		wps := 0.0
		if secs > 0 {
			wps = float64(windows) / secs
		}
		timings = append(timings, benchExperiment{ID: id, Seconds: secs, Windows: windows,
			WindowsPerSec: wps, WindowMemoHits: core.WindowMemo().Hits - prevHits,
			IngestMemoHits: core.IngestMemo().Hits - prevIngestHits})
		rendered, err := table.Format(*format)
		if err != nil {
			fmt.Fprintf(os.Stderr, "expall: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintln(w, rendered)
	}
	elapsed := time.Since(start)
	m := r.Exec().Metrics()
	fmt.Fprintf(w, "completed in %v (%d runs, %d windows, cache %d hit / %d miss)\n",
		elapsed.Round(time.Second), m.RunsDone, m.WindowsDone, m.CacheHits, m.CacheMisses)

	if err := cli.WriteOutputs(r); err != nil {
		fmt.Fprintf(os.Stderr, "expall: %v\n", err)
		os.Exit(1)
	}
	if *benchJSON != "" {
		report := benchReport{
			Timestamp:      start.UTC().Format(time.RFC3339),
			Quick:          cli.Quick,
			Scale:          opts.Scale,
			Jobs:           r.Exec().Jobs(),
			SuiteSeconds:   elapsed.Seconds(),
			CacheHits:      m.CacheHits,
			CacheMisses:    m.CacheMisses,
			WindowsDone:    m.WindowsDone,
			WindowMemoHits: core.WindowMemo().Hits,
			IngestMemoHits: core.IngestMemo().Hits,
			Experiments:    timings,
		}
		if report.SuiteSeconds > 0 {
			report.WindowsPerSec = float64(report.WindowsDone) / report.SuiteSeconds
		}
		b, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "expall: benchjson: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*benchJSON, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "expall: benchjson: %v\n", err)
			os.Exit(1)
		}
	}
}
