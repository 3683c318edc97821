// Command starnuma runs the experiments of the StarNUMA reproduction —
// one, or the whole suite in the paper's order — and prints their
// tables, and hosts the subcommand groups that inspect what runs leave
// behind.
//
// Usage:
//
//	starnuma -exp fig8a [-quick] [-scale 0.25] [-phases 6] [-workloads BFS,TC]
//	starnuma -exp all -quick -o results.txt      # the full suite
//	starnuma -exp all -quick -nocache -jobs 1 -benchjson BENCH_fresh.json
//	starnuma -exp fig8a -metrics manifest.json   # collect metrics and stall profiles
//	starnuma -exp fig8a -faults plan.json        # inject fabric faults
//	starnuma -exp fig8a -trace trace.json        # record an event trace
//	starnuma -exp fig8a -cpuprofile cpu.pprof    # profile the run
//	starnuma -list
//
// Subcommand groups (`starnuma help` lists every command):
//
//	starnuma scenario run|validate|list scenarios/     # declarative scenarios (internal/scenario)
//	starnuma policy list                               # the internal/migrate policy registry
//	starnuma metrics dump|diff|top manifest.json       # -metrics manifests, result-cache entries
//	starnuma prof report|diff|flame manifest.json      # their stall profiles
//	starnuma trace summarize|slice|top|export trace.json
//	starnuma workload list                             # workload models (Table III)
//	starnuma workload show BFS                         # page classes, Fig. 2/13 sharing table
//	starnuma workload dump -workload BFS -phase 0 -o bfs.p0.sntr  # step-A miss trace (§IV-A1)
//	starnuma bench gate BENCH_expall.json BENCH_fresh.json  # windows/sec regression gate
//
// Experiment identifiers follow the paper's figure/table numbers; see
// DESIGN.md §5 for the index.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"starnuma/internal/core"
	"starnuma/internal/exp"
	"starnuma/internal/prof"
	"starnuma/internal/workload"
)

// Exit codes of every subcommand. Misuse and assertion failures are
// distinct so CI can tell a broken invocation or scenario file from a
// regression.
const (
	exitOK        = 0
	exitRuntime   = 1 // simulation/IO error
	exitUsage     = 2 // bad usage, unreadable/invalid input file
	exitAssertion = 3 // the run completed but a checked property failed
)

// groups is the subcommand table: `starnuma <group> <command> ...`.
var groups = []*group{&scenarioGroup, &policyGroup, &profGroup, &metricsGroup, &traceGroup, &workloadGroup, &benchGroup}

func main() {
	os.Exit(run(os.Args[1:]))
}

// run dispatches one invocation and returns its exit code. A leading
// flag (or nothing) selects the experiment interface; a leading word
// names a group.
func run(args []string) int {
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		return expMain(args)
	}
	if args[0] == "help" {
		usage(os.Stdout, nil)
		return exitOK
	}
	for _, g := range groups {
		if g.name == args[0] {
			return g.main(args[1:])
		}
	}
	fmt.Fprintf(os.Stderr, "starnuma: unknown command %q\n", args[0])
	usage(os.Stderr, nil)
	return exitUsage
}

// usage prints the top-level usage: the experiment flags when fs is
// given, then every group with its commands.
func usage(w io.Writer, fs *flag.FlagSet) {
	fmt.Fprintln(w, "usage: starnuma -exp ID|all [flags] | starnuma -list | starnuma <group> <command> [args]")
	if fs != nil {
		fmt.Fprintln(w, "\nExperiment flags:")
		fs.PrintDefaults()
	}
	fmt.Fprintln(w, "\nGroups:")
	for _, g := range groups {
		fmt.Fprintf(w, "  %-10s %s\n", g.name, g.summary)
		for _, c := range g.cmds {
			fmt.Fprintf(w, "    %-10s %s\n", c.name, c.summary)
		}
	}
	fmt.Fprintln(w, "\n'starnuma <group> help' shows a group's commands; 'starnuma -h' the experiment flags.")
}

// A command is one row of a group's subcommand table. run defines its
// flags on the flag set the group hands it, so each flag is documented
// once, where it is defined; the flag set prints the command's usage on
// -h and on misuse.
type command struct {
	name, synopsis, summary string // synopsis: the command's flags and arguments
	run                     func(fs *flag.FlagSet, args []string) error
}

// A group is one `starnuma <group>` word: its command table plus notes
// on the arguments, printed under it.
type group struct {
	name, summary, notes string
	cmds                 []command
}

func (g *group) usage(w io.Writer) {
	for i, c := range g.cmds {
		prefix := "usage:"
		if i > 0 {
			prefix = "      "
		}
		fmt.Fprintln(w, prefix, strings.TrimSpace("starnuma "+g.name+" "+c.name+" "+c.synopsis))
	}
	fmt.Fprintln(w, "\nCommands:")
	for _, c := range g.cmds {
		fmt.Fprintf(w, "  %-10s %s\n", c.name, c.summary)
	}
	fmt.Fprintf(w, "\n%s'starnuma %s <command> -h' describes a command's flags.\n", g.notes, g.name)
}

// main runs the command args[0] names.
func (g *group) main(args []string) int {
	if len(args) == 0 {
		g.usage(os.Stderr)
		return exitUsage
	}
	switch args[0] {
	case "-h", "-help", "--help", "help":
		g.usage(os.Stdout)
		return exitOK
	}
	for _, c := range g.cmds {
		if c.name != args[0] {
			continue
		}
		prog := "starnuma " + g.name + " " + c.name
		fs := flag.NewFlagSet(prog, flag.ContinueOnError)
		fs.Usage = func() {
			fmt.Fprintln(fs.Output(), "usage:", strings.TrimSpace(prog+" "+c.synopsis))
			fs.PrintDefaults()
		}
		return report(prog, c.run(fs, args[1:]))
	}
	fmt.Fprintf(os.Stderr, "starnuma %s: unknown command %q\n", g.name, args[0])
	g.usage(os.Stderr)
	return exitUsage
}

// report turns a command's error into its exit code, printing at most
// one line, prefixed with prog: an exitError carries its own code, and
// any other error is a runtime failure.
func report(prog string, err error) int {
	var ee *exitError
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return exitOK
	case errors.As(err, &ee):
		if ee.err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", prog, ee.err)
		}
		return ee.code
	}
	fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
	return exitRuntime
}

// exitError ends a command with a specific exit code. A nil err means
// the command already reported its failures.
type exitError struct {
	code int
	err  error
}

func (e *exitError) Error() string { return fmt.Sprint(e.err) }

// parse parses a command's flags and checks that it got between min
// and max positional arguments (max < 0: no upper bound). Misuse is
// reported by the flag set, with the command's usage.
func parse(fs *flag.FlagSet, args []string, min, max int) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return &exitError{exitUsage, nil}
	}
	if n := fs.NArg(); n < min || (max >= 0 && n > max) {
		fmt.Fprintf(fs.Output(), "%s: wrong number of arguments (%d)\n", fs.Name(), n)
		fs.Usage()
		return &exitError{exitUsage, nil}
	}
	return nil
}

// writeOut writes b to path, or to stdout when path is empty.
func writeOut(path string, b []byte) error {
	if path == "" {
		_, err := os.Stdout.Write(b)
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// expMain runs one experiment, or the whole suite under -exp all (or
// lists them), and prints the tables.
func expMain(args []string) int {
	fs := flag.NewFlagSet("starnuma", flag.ContinueOnError)
	fs.Usage = func() { usage(fs.Output(), fs) }
	var (
		expID     = fs.String("exp", "", "experiment to run (e.g. fig8a, tab4), or all for the suite in paper order; see -list")
		list      = fs.Bool("list", false, "list experiment identifiers and exit")
		format    = fs.String("format", "text", "output format: text, csv, md")
		chart     = fs.Int("chart", -1, "render the given column index as ASCII bars instead")
		out       = fs.String("o", "", "also write the output to this file")
		benchJSON = fs.String("benchjson", "", "write suite and per-experiment timings to this JSON file (see: starnuma bench gate)")
	)
	cli := exp.AddCLIFlags(fs)
	pf := prof.AddFlags(fs)
	err := func() error {
		if err := parse(fs, args, 0, 0); err != nil {
			return err
		}
		stopProf, err := pf.Start()
		if err != nil {
			return err
		}
		defer stopProf()
		if *list {
			for _, e := range exp.Experiments() {
				fmt.Printf("%-10s %-12s %s\n", e.ID, e.PaperRef, e.Title)
			}
			return nil
		}
		if *expID == "" {
			return &exitError{exitUsage, errors.New("-exp required (or -list, or help); e.g. -exp fig8a")}
		}
		opts, err := cli.Options(os.Stderr)
		if err != nil {
			return err
		}
		suite := *expID == "all"
		ids := []string{*expID}
		if suite {
			ids = exp.IDs()
		}
		var w io.Writer = os.Stdout
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				return err
			}
			defer f.Close()
			w = io.MultiWriter(os.Stdout, f)
		}
		render := func(t *exp.Table) (string, error) {
			if *chart >= 0 {
				return t.BarChart(*chart, 48)
			}
			return t.Format(*format)
		}
		r := exp.NewRunner(opts)
		bench, err := runExperiments(w, r, ids, suite, render)
		if err != nil {
			return err
		}
		if err := cli.WriteOutputs(r); err != nil {
			return err
		}
		if *benchJSON != "" {
			bench.Quick = cli.Quick
			if err := bench.write(*benchJSON); err != nil {
				return fmt.Errorf("benchjson: %w", err)
			}
		}
		return nil
	}()
	return report("starnuma", err)
}

// runExperiments runs ids on r in order and writes their tables, as
// render formats them, to w with a blank line between tables; the
// suite frames them with a header and a footer. It returns the run's
// timing report.
func runExperiments(w io.Writer, r *exp.Runner, ids []string, suite bool, render func(*exp.Table) (string, error)) (*benchReport, error) {
	start := time.Now()
	opts := r.Options()
	if suite {
		fmt.Fprintf(w, "StarNUMA reproduction — full experiment suite\n")
		fmt.Fprintf(w, "scale=%v phases=%d phaseInstr=%d timedInstr=%d jobs=%d\n\n",
			opts.Scale, opts.Sim.Phases, opts.Sim.PhaseInstr, opts.Sim.TimedInstr, r.Exec().Jobs())
	}
	bench := &benchReport{Timestamp: start.UTC().Format(time.RFC3339), Scale: opts.Scale, Jobs: r.Exec().Jobs()}
	for i, id := range ids {
		if i > 0 {
			fmt.Fprintln(w)
		}
		t0 := time.Now()
		prevWindows := r.Exec().Metrics().WindowsDone
		prevHits := core.WindowMemo().Hits
		prevIngestHits := core.IngestMemo().Hits
		table, err := r.ByID(id)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		e := benchExperiment{ID: id, Seconds: time.Since(t0).Seconds(),
			Windows:        r.Exec().Metrics().WindowsDone - prevWindows,
			WindowMemoHits: core.WindowMemo().Hits - prevHits,
			IngestMemoHits: core.IngestMemo().Hits - prevIngestHits}
		if e.Seconds > 0 {
			e.WindowsPerSec = float64(e.Windows) / e.Seconds
		}
		bench.Experiments = append(bench.Experiments, e)
		text, err := render(table)
		if err != nil {
			return nil, err
		}
		fmt.Fprint(w, text)
	}
	elapsed := time.Since(start)
	m := r.Exec().Metrics()
	if suite {
		fmt.Fprintf(w, "\ncompleted in %v (%d runs, %d windows, cache %d hit / %d miss)\n",
			elapsed.Round(time.Second), m.RunsDone, m.WindowsDone, m.CacheHits, m.CacheMisses)
	}
	bench.SuiteSeconds = elapsed.Seconds()
	bench.CacheHits, bench.CacheMisses, bench.WindowsDone = m.CacheHits, m.CacheMisses, m.WindowsDone
	bench.WindowMemoHits, bench.IngestMemoHits = core.WindowMemo().Hits, core.IngestMemo().Hits
	streams := workload.StreamCache()
	bench.StreamCacheBytes, bench.StreamCacheEvictions = streams.ResidentBytes, streams.Evictions
	bench.StreamRecordings = workload.StreamRecordings()
	bench.PeakRSSMB = peakRSSMB()
	bench.GCCycles, bench.GCCPUSeconds = gcTotals()
	if bench.SuiteSeconds > 0 {
		bench.WindowsPerSec = float64(bench.WindowsDone) / bench.SuiteSeconds
	}
	return bench, nil
}
