package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"starnuma/internal/attrib"
)

var profGroup = group{
	name:    "prof",
	summary: "inspect the stall profiles of runs collected with -metrics",
	notes: `FILE is any document the metrics commands read: a -metrics run
manifest, a result-cache entry or a bare core.Result. Runs without a
stall profile are skipped. diff's -a/-b select runs by
key/workload/policy substring: with one file both groups come from it,
with two -a filters the first and -b the second.
`,
	cmds: []command{
		{"report", "[-sockets] [-require] FILE", "per-run stall breakdown by category (and socket)", profReport},
		{"diff", "[-a substr] [-b substr] FILE [FILE2]", "category share shift between two documents or two groups", profDiff},
		{"flame", "[-speedscope out.json] FILE", "folded stacks (flamegraph.pl format) or speedscope JSON", profFlame},
	},
}

// profRuns parses a command's flags, decodes its min to max document
// arguments and keeps, per document, the runs that carry a stall
// profile, in the document's order.
func profRuns(fs *flag.FlagSet, args []string, min, max int) ([][]attrib.Run, error) {
	docs, err := loadRuns(fs, args, min, max)
	if err != nil {
		return nil, err
	}
	out := make([][]attrib.Run, len(docs))
	for i, runs := range docs {
		for _, r := range runs {
			if r.Profile != nil {
				out[i] = append(out[i], attrib.Run{Key: r.Key, Workload: r.Workload, Policy: r.Policy, Profile: r.Profile})
			}
		}
	}
	return out, nil
}

func profReport(fs *flag.FlagSet, args []string) error {
	sockets := fs.Bool("sockets", false, "also print the per-socket stall split")
	require := fs.Bool("require", false, "exit 3 unless every profile conserves stall time exactly")
	docs, err := profRuns(fs, args, 1, 1)
	if err != nil {
		return err
	}
	var failed error
	for _, r := range docs[0] {
		if err := r.Profile.CheckConservation(); err != nil && *require {
			fmt.Fprintf(os.Stderr, "starnuma prof report: run %s: %v\n", r.Key, err)
			failed = &exitError{exitAssertion, nil}
		}
	}
	fmt.Print(attrib.RenderReport(docs[0], *sockets))
	return failed
}

func profDiff(fs *flag.FlagSet, args []string) error {
	aSub := fs.String("a", "", "substring selecting the A group (key/workload/policy)")
	bSub := fs.String("b", "", "substring selecting the B group (key/workload/policy)")
	docs, err := profRuns(fs, args, 1, 2)
	if err != nil {
		return err
	}
	ra, rb := docs[0], docs[0]
	labelA, labelB := fs.Arg(0), fs.Arg(0)
	if len(docs) == 2 {
		rb, labelB = docs[1], fs.Arg(1)
	} else if *aSub == "" && *bSub == "" {
		return &exitError{exitUsage, errors.New("one document needs -a and/or -b to form two groups")}
	}
	if *aSub != "" {
		labelA += ":" + *aSub
	}
	if *bSub != "" {
		labelB += ":" + *bSub
	}
	ta, runsA, skipA := attrib.GroupTotals(ra, *aSub)
	tb, runsB, skipB := attrib.GroupTotals(rb, *bSub)
	if runsA == 0 || runsB == 0 {
		return fmt.Errorf("empty group (a: %d runs, b: %d runs)", runsA, runsB)
	}
	if skipA+skipB > 0 {
		fmt.Fprintf(os.Stderr, "starnuma prof diff: skipped %d runs with mismatched categories\n", skipA+skipB)
	}
	fmt.Print(attrib.RenderDiff(labelA, labelB, ta, tb))
	return nil
}

func profFlame(fs *flag.FlagSet, args []string) error {
	speedscope := fs.String("speedscope", "", "write a speedscope sampled profile to this file")
	docs, err := profRuns(fs, args, 1, 1)
	if err != nil {
		return err
	}
	if *speedscope == "" {
		fmt.Print(attrib.RenderFolded(docs[0]))
		return nil
	}
	b, err := attrib.RenderSpeedscope(docs[0])
	if err != nil {
		return err
	}
	return writeOut(*speedscope, b)
}
