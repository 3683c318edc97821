package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"starnuma/internal/exp"
	"starnuma/internal/runner"
	"starnuma/internal/scenario"
)

var scenarioGroup = group{
	name:    "scenario",
	summary: "run, validate and list declarative scenarios (internal/scenario)",
	notes: `Arguments name scenario JSON files, or directories whose *.json files
are taken in sorted order. Exit 2 means a broken scenario file, exit 3
a failed assertion.
`,
	cmds: []command{
		{"run", "[-jobs N] [-cache DIR] [-nocache] [-progress] [-verdict-dir D] [-v] <file-or-dir>...",
			"compile and run scenarios, check their assertions", scenarioRun},
		{"validate", "<file-or-dir>...", "parse and compile scenarios without running them", scenarioValidate},
		{"list", "<file-or-dir>...", "list scenario names and descriptions", scenarioList},
	},
}

// scenarioFiles expands the file-or-directory arguments into a flat
// file list; directories contribute their *.json files in sorted order.
func scenarioFiles(args []string) ([]string, error) {
	if len(args) == 0 {
		return nil, fmt.Errorf("no scenario files given")
	}
	var files []string
	for _, arg := range args {
		st, err := os.Stat(arg)
		if err != nil {
			return nil, err
		}
		if !st.IsDir() {
			files = append(files, arg)
			continue
		}
		matches, err := filepath.Glob(filepath.Join(arg, "*.json"))
		if err != nil {
			return nil, err
		}
		if len(matches) == 0 {
			return nil, fmt.Errorf("%s: no *.json scenario files", arg)
		}
		sort.Strings(matches)
		files = append(files, matches...)
	}
	return files, nil
}

// loadScenario reads, parses and compiles one scenario file.
func loadScenario(file string) (*scenario.Compiled, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	s, err := scenario.Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", file, err)
	}
	c, err := scenario.Compile(s)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", file, err)
	}
	return c, nil
}

// eachScenario calls fn on every scenario the arguments name that
// compiles; the others are reported and fail the command with exit 2.
func eachScenario(args []string, fn func(file string, c *scenario.Compiled)) error {
	files, err := scenarioFiles(args)
	if err != nil {
		return &exitError{exitUsage, err}
	}
	var failed error
	for _, file := range files {
		c, err := loadScenario(file)
		if err != nil {
			fmt.Fprintf(os.Stderr, "invalid  %v\n", err)
			failed = &exitError{exitUsage, nil}
			continue
		}
		fn(file, c)
	}
	return failed
}

func scenarioValidate(_ *flag.FlagSet, args []string) error {
	return eachScenario(args, func(file string, c *scenario.Compiled) {
		fmt.Printf("ok       %s (%s, %d workloads, %d events, %d assertions)\n",
			file, c.Name(), len(c.Specs), len(c.Scenario.Events), len(c.Scenario.Assertions))
	})
}

func scenarioList(_ *flag.FlagSet, args []string) error {
	return eachScenario(args, func(_ string, c *scenario.Compiled) {
		fmt.Printf("%-28s %s\n", c.Name(), c.Scenario.Description)
	})
}

func scenarioRun(fs *flag.FlagSet, args []string) error {
	var (
		jobs       = fs.Int("jobs", 0, "parallel worker slots (0 = GOMAXPROCS)")
		cacheDir   = fs.String("cache", runner.DefaultCacheDir, "result cache directory")
		noCache    = fs.Bool("nocache", false, "disable the persistent result cache")
		progress   = fs.Bool("progress", false, "report job progress on stderr")
		verdictDir = fs.String("verdict-dir", "", "write one <name>.verdict.json manifest per scenario to this directory")
		verbose    = fs.Bool("v", false, "print every check, not just failures")
	)
	if err := parse(fs, args, 0, -1); err != nil {
		return err
	}
	files, err := scenarioFiles(fs.Args())
	if err != nil {
		return &exitError{exitUsage, err}
	}

	// Compile everything up front: a broken file fails the whole
	// invocation before any simulation starts.
	compiled := make([]*scenario.Compiled, len(files))
	for i, file := range files {
		if compiled[i], err = loadScenario(file); err != nil {
			return &exitError{exitUsage, err}
		}
	}
	if *verdictDir != "" {
		if err := os.MkdirAll(*verdictDir, 0o755); err != nil {
			return err
		}
	}

	opts := exp.Options{Jobs: *jobs}
	if !*noCache {
		opts.CacheDir = *cacheDir
	}
	if *progress {
		opts.Reporter = runner.NewTerminalReporter(os.Stderr)
	}
	r := exp.NewRunner(opts)

	var failed error
	for i, c := range compiled {
		v, err := r.RunScenario(c)
		if err != nil {
			return fmt.Errorf("%s: %w", files[i], err)
		}
		fmt.Println(v.Summary())
		if err := printChecks(os.Stdout, files[i], v, *verbose); err != nil {
			return err
		}
		if *verdictDir != "" {
			b, err := v.Encode()
			if err == nil {
				err = writeOut(filepath.Join(*verdictDir, c.Name()+".verdict.json"), b)
			}
			if err != nil {
				return err
			}
		}
		if !v.Pass {
			failed = &exitError{exitAssertion, nil}
		}
	}
	return failed
}

// printChecks writes the per-check lines: failures always (anchored to
// the scenario file:line), passes only when verbose.
func printChecks(w io.Writer, file string, v *scenario.Verdict, verbose bool) error {
	for _, chk := range v.Checks {
		if chk.Pass && !verbose {
			continue
		}
		status := "  pass"
		if !chk.Pass {
			status = "  FAIL"
		}
		loc := file
		if chk.Line > 0 {
			loc = fmt.Sprintf("%s:%d", file, chk.Line)
		}
		if _, err := fmt.Fprintf(w, "%s  %s: %s\n", status, loc, chk.Detail); err != nil {
			return err
		}
	}
	if !v.Pass {
		if _, err := fmt.Fprintf(w, "  (got-vs-expected above; re-run with -verdict-dir for the machine-readable manifest)\n"); err != nil {
			return err
		}
	}
	return nil
}
