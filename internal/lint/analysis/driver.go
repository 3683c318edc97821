package analysis

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

// Main is the entry point of the starnumavet checker binary:
//
//	starnumavet [-json] [packages]
//
// It loads the package patterns (default ./...) through `go list` and
// runs every analyzer over them. -json prints the byte-stable
// diagnostics report (ReportSchema) on stdout instead of one text line
// per finding on stderr. A reasoned //starnumavet:allow directive is the
// only way to accept a finding.
func Main(analyzers ...*Analyzer) {
	os.Exit(run("", os.Args[1:], os.Stdout, os.Stderr, analyzers))
}

// run is Main against the packages in dir ("" meaning the current
// directory). It returns the exit code: 0 when there is no finding, 1
// on a finding, an analyzer failure or a load error, 2 on a usage
// error.
func run(dir string, args []string, stdout, stderr io.Writer, analyzers []*Analyzer) int {
	fs := flag.NewFlagSet("starnumavet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "print the machine-readable diagnostics report on stdout")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: starnumavet [-json] [package pattern ...]\n\nAnalyzers:\n")
		for _, a := range analyzers {
			doc, _, _ := strings.Cut(a.Doc, "\n")
			fmt.Fprintf(stderr, "  %-12s %s\n", a.Name, doc)
		}
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	pkgs, err := Load(dir, fs.Args()...)
	if err != nil {
		fmt.Fprintf(stderr, "starnumavet: %v\n", err)
		return 1
	}
	rep := &Report{Schema: ReportSchema, Diagnostics: []JSONDiagnostic{}}
	exit := 0
	for _, pkg := range pkgs {
		for _, res := range RunAnalyzers(analyzers, pkg) {
			if res.Err != nil {
				fmt.Fprintf(stderr, "starnumavet: %s: %v\n", res.Analyzer.Name, res.Err)
				exit = 1
			}
			for _, d := range res.Diagnostics {
				posn := pkg.Fset.Position(d.Pos)
				rep.Diagnostics = append(rep.Diagnostics, JSONDiagnostic{
					File:     modRelative(posn.Filename),
					Line:     posn.Line,
					Col:      posn.Column,
					Analyzer: res.Analyzer.Name,
					Message:  d.Message,
				})
			}
		}
	}
	if len(rep.Diagnostics) > 0 {
		exit = 1
	}
	if *jsonOut {
		stdout.Write(rep.Encode())
		return exit
	}
	rep.Sort()
	for _, d := range rep.Diagnostics {
		fmt.Fprintf(stderr, "%s:%d:%d: %s [%s]\n", d.File, d.Line, d.Col, d.Message, d.Analyzer)
	}
	return exit
}
