// Command starnuma runs one experiment of the StarNUMA reproduction and
// prints its table, and hosts the subcommand groups that inspect what
// runs leave behind.
//
// Usage:
//
//	starnuma -exp fig8a [-quick] [-scale 0.25] [-phases 6] [-workloads BFS,TC]
//	starnuma -exp fig8a -metrics manifest.json   # collect instrumentation
//	starnuma -exp fig8a -faults plan.json        # inject fabric faults
//	starnuma -exp fig8a -trace trace.json        # record an event trace
//	starnuma -exp fig8a -attrib profiles.json    # attribute stall time
//	starnuma -exp fig8a -cpuprofile cpu.pprof    # profile the run
//	starnuma -list
//
// Subcommand groups (`starnuma help` lists every command):
//
//	starnuma scenario run|validate|list scenarios/     # declarative scenarios (internal/scenario)
//	starnuma policy list                               # the internal/migrate policy registry
//	starnuma prof report|diff|flame profiles.json      # -attrib stall profiles
//	starnuma metrics dump|diff|top manifest.json       # -metrics manifests, result-cache entries
//	starnuma trace summarize|slice|top|export trace.json
//	starnuma workload list                             # workload models (Table III)
//	starnuma workload show BFS                         # page classes, Fig. 2/13 sharing table
//	starnuma workload dump -workload BFS -phase 0 -o bfs.p0.sntr  # step-A miss trace (§IV-A1)
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

	"starnuma/internal/exp"
	"starnuma/internal/prof"
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
var groups = []*group{&scenarioGroup, &policyGroup, &profGroup, &metricsGroup, &traceGroup, &workloadGroup}

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
	fmt.Fprintln(w, "usage: starnuma -exp ID [flags] | starnuma -list | starnuma <group> <command> [args]")
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

// expMain runs one experiment (or lists them) and prints its table.
func expMain(args []string) int {
	fs := flag.NewFlagSet("starnuma", flag.ContinueOnError)
	fs.Usage = func() { usage(fs.Output(), fs) }
	var (
		expID  = fs.String("exp", "", "experiment to run (e.g. fig8a, tab4); see -list")
		list   = fs.Bool("list", false, "list experiment identifiers and exit")
		format = fs.String("format", "text", "output format: text, csv, md")
		chart  = fs.Int("chart", -1, "render the given column index as ASCII bars instead")
	)
	cli := exp.AddCLIFlags(fs, false)
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
		r := exp.NewRunner(opts)
		table, err := r.ByID(*expID)
		if err != nil {
			return err
		}
		out, err := table.Format(*format)
		if *chart >= 0 {
			out, err = table.BarChart(*chart, 48)
		}
		if err != nil {
			return err
		}
		fmt.Print(out)
		return cli.WriteOutputs(r)
	}()
	return report("starnuma", err)
}
