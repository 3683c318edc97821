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
	summary: "inspect stall-attribution documents written by -attrib",
	notes: `diff's -a/-b select runs by key/workload/policy substring: with one
file both groups come from it, with two -a filters the first and -b
the second.
`,
	cmds: []command{
		{"report", "[-sockets] [-require] profiles.json", "per-run stall breakdown by category (and socket)", profReport},
		{"diff", "[-a substr] [-b substr] a.json [b.json]", "category share shift between two documents or two groups", profDiff},
		{"flame", "[-speedscope out.json] profiles.json", "folded stacks (flamegraph.pl format) or speedscope JSON", profFlame},
	},
}

// loadProfDoc reads and validates one stall-profile document.
func loadProfDoc(path string) (*attrib.Doc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return attrib.DecodeDoc(data)
}

func profReport(fs *flag.FlagSet, args []string) error {
	sockets := fs.Bool("sockets", false, "also print the per-socket stall split")
	require := fs.Bool("require", false, "exit 3 unless every profile conserves stall time exactly")
	if err := parse(fs, args, 1, 1); err != nil {
		return err
	}
	d, err := loadProfDoc(fs.Arg(0))
	if err != nil {
		return err
	}
	var failed error
	if *require {
		for i := range d.Runs {
			if err := d.Runs[i].Profile.CheckConservation(); err != nil {
				fmt.Fprintf(os.Stderr, "starnuma prof report: run %s: %v\n", d.Runs[i].Key, err)
				failed = &exitError{exitAssertion, nil}
			}
		}
	}
	fmt.Print(attrib.RenderReport(d, *sockets))
	return failed
}

func profDiff(fs *flag.FlagSet, args []string) error {
	aSub := fs.String("a", "", "substring selecting the A group (key/workload/policy)")
	bSub := fs.String("b", "", "substring selecting the B group (key/workload/policy)")
	if err := parse(fs, args, 1, 2); err != nil {
		return err
	}
	da, err := loadProfDoc(fs.Arg(0))
	if err != nil {
		return err
	}
	db := da
	labelA, labelB := fs.Arg(0), fs.Arg(0)
	if fs.NArg() == 2 {
		if db, err = loadProfDoc(fs.Arg(1)); err != nil {
			return err
		}
		labelB = fs.Arg(1)
	} else if *aSub == "" && *bSub == "" {
		return &exitError{exitUsage, errors.New("one document needs -a and/or -b to form two groups")}
	}
	if *aSub != "" {
		labelA += ":" + *aSub
	}
	if *bSub != "" {
		labelB += ":" + *bSub
	}
	ta, runsA, skipA := da.GroupTotals(*aSub)
	tb, runsB, skipB := db.GroupTotals(*bSub)
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
	if err := parse(fs, args, 1, 1); err != nil {
		return err
	}
	d, err := loadProfDoc(fs.Arg(0))
	if err != nil {
		return err
	}
	if *speedscope == "" {
		fmt.Print(attrib.RenderFolded(d))
		return nil
	}
	b, err := attrib.RenderSpeedscope(d)
	if err != nil {
		return err
	}
	return writeOut(*speedscope, b)
}
