// Command starnuma runs one experiment of the StarNUMA reproduction and
// prints its table.
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
// Declarative scenarios (internal/scenario) run through subcommands:
//
//	starnuma scenario run scenarios/           # run + check assertions
//	starnuma scenario validate scenarios/
//	starnuma scenario list scenarios/
//
// Migration policies come from internal/migrate's registry; select one
// with -policy (name, or name:{json-params}) and enumerate them with:
//
//	starnuma policy list
//
// Stall-attribution documents written by -attrib are inspected with the
// prof subcommands:
//
//	starnuma prof report profiles.json
//	starnuma prof diff -a oracle -b starnuma profiles.json
//	starnuma prof flame profiles.json
//
// Experiment identifiers follow the paper's figure/table numbers; see
// DESIGN.md §5 for the index.
package main

import (
	"flag"
	"fmt"
	"os"

	"starnuma/internal/exp"
	"starnuma/internal/prof"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "scenario" {
		os.Exit(scenarioMain(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "policy" {
		os.Exit(policyMain(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "prof" {
		os.Exit(profMain(os.Args[2:]))
	}
	var (
		expID  = flag.String("exp", "", "experiment to run (e.g. fig8a, tab4); see -list")
		list   = flag.Bool("list", false, "list experiment identifiers and exit")
		format = flag.String("format", "text", "output format: text, csv, md")
		chart  = flag.Int("chart", -1, "render the given column index as ASCII bars instead")
	)
	cli := exp.AddCLIFlags(flag.CommandLine, false)
	pf := prof.AddFlags(flag.CommandLine)
	flag.Parse()
	stopProf, err := pf.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "starnuma: %v\n", err)
		os.Exit(1)
	}
	defer stopProf()

	if *list {
		for _, e := range exp.Experiments() {
			fmt.Printf("%-10s %-12s %s\n", e.ID, e.PaperRef, e.Title)
		}
		return
	}
	if *expID == "" {
		fmt.Fprintln(os.Stderr, "starnuma: -exp required (or -list); e.g. -exp fig8a")
		os.Exit(2)
	}

	opts, err := cli.Options(os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "starnuma: %v\n", err)
		os.Exit(1)
	}
	r := exp.NewRunner(opts)
	table, err := r.ByID(*expID)
	if err != nil {
		fmt.Fprintf(os.Stderr, "starnuma: %v\n", err)
		os.Exit(1)
	}
	var out string
	if *chart >= 0 {
		out, err = table.BarChart(*chart, 48)
	} else {
		out, err = table.Format(*format)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "starnuma: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(out)
	if err := cli.WriteOutputs(r); err != nil {
		fmt.Fprintf(os.Stderr, "starnuma: %v\n", err)
		os.Exit(1)
	}
}
