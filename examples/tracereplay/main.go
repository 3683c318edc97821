// Tracereplay: the trace-driven path of the evaluation pipeline. It
// dumps two phases of a workload's miss stream to binary trace files
// (the step-A artifact, §IV-A1), then replays them through steps B and C
// via core.RunSource — the route an externally captured trace would
// take.
//
// Run with:
//
//	go run ./examples/tracereplay
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"starnuma/internal/core"
	"starnuma/internal/trace"
	"starnuma/internal/workload"
)

func main() {
	spec, err := workload.ByName("TPCC", 0.125)
	if err != nil {
		log.Fatal(err)
	}
	gen, err := workload.NewGenerator(spec, 16, 4)
	if err != nil {
		log.Fatal(err)
	}

	sim := core.QuickSim()
	sim.Phases = 2

	// Step A: materialise each phase as a trace file.
	dir, err := os.MkdirTemp("", "starnuma-traces")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	var paths []string
	for phase := 0; phase < sim.Phases; phase++ {
		path := filepath.Join(dir, fmt.Sprintf("tpcc.p%d.sntr", phase))
		f, err := os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		n, err := trace.DumpPhase(gen, phase, sim.PhaseInstr, f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("phase %d: %d records -> %s\n", phase, n, path)
		paths = append(paths, path)
	}

	// Steps B+C, twice: once from the live generator, once replaying the
	// trace files. Identical streams must produce identical results, so
	// any difference exits non-zero.
	fromGen, err := core.Run(core.StarNUMASystem(), sim, spec)
	if err != nil {
		log.Fatal(err)
	}
	src, err := trace.NewSource(spec, 16, 4, paths)
	if err != nil {
		log.Fatal(err)
	}
	fromTrace, err := core.RunSource(core.StarNUMASystem(), sim, src)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%-12s %8s %12s %10s\n", "source", "IPC", "AMAT", "pool pages")
	fmt.Printf("%-12s %8.3f %11.1fns %10d\n", "generator",
		fromGen.IPC, fromGen.AMAT.Measured().Nanos(), fromGen.PoolPages)
	fmt.Printf("%-12s %8.3f %11.1fns %10d\n", "trace file",
		fromTrace.IPC, fromTrace.AMAT.Measured().Nanos(), fromTrace.PoolPages)
	if fromGen.IPC != fromTrace.IPC || fromGen.AMAT.Measured() != fromTrace.AMAT.Measured() ||
		fromGen.PoolPages != fromTrace.PoolPages {
		log.Fatal("trace replay diverged from the generator run")
	}
}
