// Command perfbench runs one benchmark workload's pass in a fresh
// process and prints its measurements as one JSON object. run.py drives
// it: it builds this binary, runs the passes a benchmark run needs and
// prints the benchmark's result line.
//
//	perfbench -workload paper16 -seed 0 -mode untraced
//	perfbench -workload paper16 -seed 0 -mode traced -spans spans.json
//
// An untraced pass times step A (set-up) and the production pipeline;
// a traced pass times each core.NewPlan / Plan.RunWindow / Plan.Assemble
// call and then replays the workload's recorded accesses through each
// component's public API.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"
)

func main() {
	wl := flag.String("workload", "", "benchmark workload name")
	seed := flag.Uint64("seed", 0, "input seed; 0 runs the suite's own seeds")
	mode := flag.String("mode", "untraced", "untraced or traced")
	spans := flag.String("spans", "", "traced mode: write the spans to this JSON file")
	tiny := flag.Bool("tiny", false, "shrink every run to smoke-test size")
	flag.Parse()
	b, err := buildBatch(*wl, *seed, *tiny)
	if err != nil {
		fatal(err)
	}
	var out any
	switch *mode {
	case "untraced":
		out, err = untracedPass(b)
	case "traced":
		out, err = tracedPass(b, *spans)
	default:
		err = fmt.Errorf("unknown mode %q", *mode)
	}
	if err != nil {
		fatal(err)
	}
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// untracedReport is an untraced pass's output.
type untracedReport struct {
	SetupS     float64  `json:"setup_s"`
	WallS      float64  `json:"wall_s"`
	CPUS       float64  `json:"cpu_s"`
	Windows    int      `json:"windows"`
	LiveHeapMB float64  `json:"live_heap_mb"`
	PeakRSSMB  float64  `json:"peak_rss_mb"`
	Digests    []string `json:"digests"`
}

func untracedPass(b *batch) (*untracedReport, error) {
	rep := &untracedReport{}
	t0 := time.Now()
	if _, err := setup(b, newTracer()); err != nil {
		return nil, err
	}
	rep.SetupS = time.Since(t0).Seconds()

	cpu0 := cpuTime()
	t0 = time.Now()
	o := runUntraced(b)
	rep.WallS = time.Since(t0).Seconds()
	rep.CPUS = (cpuTime() - cpu0).Seconds()

	// Two collections empty the sync.Pool victim caches, so the figure is
	// what the memos and results hold whatever the GC's timing.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.LiveHeapMB = float64(ms.HeapAlloc) / (1 << 20)
	o.digest()
	runtime.KeepAlive(o)
	rep.Windows = o.windows
	rep.Digests = o.digests
	rep.PeakRSSMB = peakRSSMB()
	return rep, nil
}

// cpuTime returns the process's user+system CPU time, every thread
// (the garbage collector's included).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size (ru_maxrss,
// kilobytes on Linux) in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
