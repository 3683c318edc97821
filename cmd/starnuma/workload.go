package main

import (
	"bytes"
	"flag"
	"fmt"

	"starnuma/internal/exp"
	"starnuma/internal/trace"
	"starnuma/internal/workload"
)

var workloadGroup = group{
	name:    "workload",
	summary: "characterise the synthetic workload models and dump their step-A traces",
	cmds: []command{
		{"list", "[-scale S]", "summarise the suite's derived core-model parameters", workloadList},
		{"show", "[-scale S] NAME", "detail one workload: page classes and its Fig. 2/13 sharing table", workloadShow},
		{"dump", "[-workload NAME] [-phase P] [-instr N] [-scale S] [-o out.sntr]",
			"write one phase's LLC-miss stream as a binary trace (step A, §IV-A1)", workloadDump},
	},
}

func workloadList(fs *flag.FlagSet, args []string) error {
	scale := fs.Float64("scale", 0.25, "footprint scale")
	if err := parse(fs, args, 0, 0); err != nil {
		return err
	}
	var specs []workload.Spec
	for _, name := range workload.Names() {
		spec, err := workload.ByName(name, *scale)
		if err != nil {
			return err
		}
		specs = append(specs, spec)
	}
	fmt.Printf("%-9s %6s %7s %5s %5s %9s %8s %9s\n",
		"workload", "IPC1", "MPKI", "MLP", "IPC0", "pages", "classes", ">8-share%")
	for _, spec := range specs {
		_, accs := spec.SharingHistogram(16)
		var vagabond float64
		for k := 9; k <= 16; k++ {
			vagabond += accs[k]
		}
		fmt.Printf("%-9s %6.2f %7.1f %5d %5.2f %9d %8d %8.0f%%\n",
			spec.Name, spec.SingleSocketIPC, spec.MPKI, spec.MLP,
			spec.ZeroLoadIPC(192), spec.FootprintPages, len(spec.Classes), 100*vagabond)
	}
	return nil
}

func workloadShow(fs *flag.FlagSet, args []string) error {
	scale := fs.Float64("scale", 0.25, "footprint scale")
	if err := parse(fs, args, 1, 1); err != nil {
		return err
	}
	spec, err := workload.ByName(fs.Arg(0), *scale)
	if err != nil {
		return err
	}
	sharing, err := exp.SharingTable(spec)
	if err != nil {
		return err
	}
	fmt.Printf("%s: footprint %d pages (%.0f MB), MPKI %.1f, single-socket IPC %.2f, MLP %d, zero-load IPC %.2f\n\n",
		spec.Name, spec.FootprintPages,
		float64(spec.FootprintPages)*workload.PageBytes/1e6,
		spec.MPKI, spec.SingleSocketIPC, spec.MLP, spec.ZeroLoadIPC(192))

	fmt.Printf("%-12s %8s %9s %10s %9s\n", "class", "pages%", "accesses%", "sharers", "write%")
	for _, c := range spec.Classes {
		fmt.Printf("%-12s %7.1f%% %8.1f%% %7d-%-3d %8.1f%%\n",
			c.Name, 100*c.PageShare, 100*c.AccessShare,
			c.MinSharers, c.MaxSharers, 100*c.WriteFrac)
	}
	fmt.Print("\n" + sharing.Render())
	return nil
}

func workloadDump(fs *flag.FlagSet, args []string) error {
	var (
		wl    = fs.String("workload", "BFS", "workload name (see: starnuma workload list)")
		phase = fs.Int("phase", 0, "phase index to trace")
		instr = fs.Uint64("instr", 1_000_000, "instructions per core to trace")
		scale = fs.Float64("scale", 0.25, "footprint scale")
		out   = fs.String("o", "", "output file (default <workload>.p<phase>.sntr)")
	)
	if err := parse(fs, args, 0, 0); err != nil {
		return err
	}
	spec, err := workload.ByName(*wl, *scale)
	if err != nil {
		return err
	}
	gen, err := workload.NewGenerator(spec, 16, 4)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	n, err := trace.DumpPhase(gen, *phase, *instr, &buf)
	if err != nil {
		return &exitError{exitUsage, err} // a bad -phase or -instr
	}
	path := *out
	if path == "" {
		path = fmt.Sprintf("%s.p%d.sntr", spec.Name, *phase)
	}
	if err := writeOut(path, buf.Bytes()); err != nil {
		return err
	}
	fmt.Printf("wrote %d records (%d cores, %d pages) to %s\n",
		n, gen.NumCores(), gen.NumPages(), path)
	return nil
}
