package trace

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"starnuma/internal/workload"
)

// dumpTestTrace writes one phase file and returns its path.
func dumpTestTrace(t *testing.T, dir string, gen *workload.Generator, phase int, instr uint64) string {
	t.Helper()
	path := filepath.Join(dir, "phase.sntr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := DumpPhase(gen, phase, instr, f); err != nil {
		t.Fatal(err)
	}
	return path
}

func testGen(t *testing.T) *workload.Generator {
	t.Helper()
	spec, err := workload.ByName("CC", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(spec, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

func TestSourceReplaysDump(t *testing.T) {
	gen := testGen(t)
	dir := t.TempDir()
	path := dumpTestTrace(t, dir, gen, 0, 3000)

	src, err := NewSource(gen.Spec(), 16, 4, []string{path})
	if err != nil {
		t.Fatal(err)
	}
	if src.NumCores() != 64 || src.NumPages() != gen.NumPages() {
		t.Fatalf("shape: cores=%d pages=%d", src.NumCores(), src.NumPages())
	}
	if src.SocketOf(5) != 1 {
		t.Fatal("SocketOf wrong")
	}
	if src.Spec().FootprintPages != gen.NumPages() {
		t.Fatal("spec footprint not adopted from header")
	}

	// Replay must byte-match the generator's recorded stream at the
	// dump budget, and claim no stream identity.
	if sig := src.StreamSig(3000); sig != "" {
		t.Fatalf("file replay claims stream identity %q", sig)
	}
	got := *src.PhaseStream(0, 3000)
	want := *gen.PhaseStream(0, 3000)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("replayed phase stream differs from the generator's")
	}
}

// streamOf copies core's accesses out of a phase stream.
func streamOf(s *workload.PhaseStream, core int) []workload.Access {
	var out []workload.Access
	for i := s.Off[core]; i < s.Off[core+1]; i++ {
		out = append(out, s.At(i))
	}
	return out
}

func TestSourceResetRewinds(t *testing.T) {
	gen := testGen(t)
	path := dumpTestTrace(t, t.TempDir(), gen, 1, 2000)
	src, err := NewSource(gen.Spec(), 16, 4, []string{path})
	if err != nil {
		t.Fatal(err)
	}
	first := streamOf(src.PhaseStream(0, 2000), 0)
	// A different budget rebuilds from the file; coming back must start
	// from the first record again.
	if longer := streamOf(src.PhaseStream(0, 4000), 0); !reflect.DeepEqual(longer[:len(first)], first) {
		t.Fatal("larger budget does not extend the same stream")
	}
	if got := streamOf(src.PhaseStream(0, 2000), 0); !reflect.DeepEqual(got, first) {
		t.Fatal("stream did not rewind")
	}
}

func TestSourceWrapsExhaustedStream(t *testing.T) {
	gen := testGen(t)
	path := dumpTestTrace(t, t.TempDir(), gen, 0, 200) // tiny
	src, err := NewSource(gen.Spec(), 16, 4, []string{path})
	if err != nil {
		t.Fatal(err)
	}
	file := streamOf(src.PhaseStream(0, 200), 0)
	// Ask far past the file's stream length; it must wrap, repeating the
	// file's records from the start.
	long := streamOf(src.PhaseStream(0, 200_000), 0)
	var instr uint64
	for _, a := range long {
		instr += uint64(a.Gap)
	}
	if instr < 200_000 || len(long) <= 2*len(file) {
		t.Fatalf("stream of %d records (%d instructions) did not fill the budget", len(long), instr)
	}
	for i, a := range long {
		if a != file[i%len(file)] {
			t.Fatalf("record %d is not the wrapped file record %d", i, i%len(file))
		}
	}
}

// A file replay whose cores wrap keeps the prefix property: the
// phase-budget stream's Prefix at the timed budget equals a fresh
// replay at that budget.
func TestWrappedSourcePrefixIsTimedReplay(t *testing.T) {
	gen := testGen(t)
	path := dumpTestTrace(t, t.TempDir(), gen, 0, 200) // tiny: every core wraps
	const phaseInstr, timedInstr = 200_000, 20_000
	open := func() *Source {
		src, err := NewSource(gen.Spec(), 16, 4, []string{path})
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	fresh := *open().PhaseStream(0, timedInstr)
	cut := *open().PhaseStream(0, phaseInstr).Prefix(timedInstr)
	if !reflect.DeepEqual(cut, fresh) {
		t.Fatal("Prefix of the wrapped phase-budget replay differs from a timed replay")
	}
}

func TestSourcePhaseWrapAcrossFiles(t *testing.T) {
	gen := testGen(t)
	dir := t.TempDir()
	p0 := filepath.Join(dir, "p0.sntr")
	p1 := filepath.Join(dir, "p1.sntr")
	for phase, path := range map[int]string{0: p0, 1: p1} {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DumpPhase(gen, phase, 1000, f); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	src, err := NewSource(gen.Spec(), 16, 4, []string{p0, p1})
	if err != nil {
		t.Fatal(err)
	}
	a0 := streamOf(src.PhaseStream(0, 1000), 3)
	if reflect.DeepEqual(streamOf(src.PhaseStream(1, 1000), 3), a0) {
		t.Fatal("phase 1 replays phase 0's file")
	}
	if got := streamOf(src.PhaseStream(2, 1000), 3); !reflect.DeepEqual(got, a0) { // wraps to file 0
		t.Fatal("phase wrap broken")
	}
}

func TestSourceValidation(t *testing.T) {
	gen := testGen(t)
	path := dumpTestTrace(t, t.TempDir(), gen, 0, 1000)
	if _, err := NewSource(gen.Spec(), 16, 4, nil); err == nil {
		t.Fatal("accepted empty path list")
	}
	if _, err := NewSource(gen.Spec(), 0, 4, []string{path}); err == nil {
		t.Fatal("accepted zero sockets")
	}
	if _, err := NewSource(gen.Spec(), 8, 4, []string{path}); err == nil {
		t.Fatal("accepted core-count mismatch")
	}
	if _, err := NewSource(gen.Spec(), 16, 4, []string{"/nonexistent"}); err == nil {
		t.Fatal("accepted missing file")
	}
}

// writeOneCoreTrace writes a 1-core file of n copies of a and returns
// its path.
func writeOneCoreTrace(t *testing.T, pages, n int, a workload.Access) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "phase.sntr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w, err := NewWriter(f, Header{Workload: "x", Cores: 1, Pages: pages})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := w.Write(Record{Access: a}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return path
}

// Records a phase stream cannot hold are rejected at load with an
// error naming the file and the record, instead of hanging replay (a
// core of zero gaps never reaches its budget) or aliasing a block into
// the next page.
func TestSourceRejectsUnpackableRecords(t *testing.T) {
	spec := testGen(t).Spec()
	for _, tc := range []struct {
		name string
		a    workload.Access
	}{
		{"gap 0", workload.Access{Gap: 0, Page: 1, Block: 70}},
		{"gap 0 in-range block", workload.Access{Gap: 0, Page: 1}},
		{"gap past MaxGap", workload.Access{Gap: workload.MaxGap + 1, Page: 1}},
		{"block 64", workload.Access{Gap: 1, Page: 1, Block: workload.BlocksPerPage}},
		{"page past footprint", workload.Access{Gap: 1, Page: 16}},
	} {
		path := writeOneCoreTrace(t, 16, 8, tc.a)
		_, err := NewSource(spec, 1, 1, []string{path})
		if err == nil {
			t.Errorf("%s: NewSource accepted %+v", tc.name, tc.a)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, path) || !strings.Contains(msg, "record 0") {
			t.Errorf("%s: error %q does not name the file and record", tc.name, msg)
		}
	}
	// The boundary values themselves load and replay.
	path := writeOneCoreTrace(t, 16, 8, workload.Access{Gap: workload.MaxGap, Page: 15, Block: workload.BlocksPerPage - 1, Write: true})
	src, err := NewSource(spec, 1, 1, []string{path})
	if err != nil {
		t.Fatal(err)
	}
	if got := src.PhaseStream(0, 3*workload.MaxGap).At(2); got.Gap != workload.MaxGap || got.Block != workload.BlocksPerPage-1 {
		t.Fatalf("boundary record replayed as %+v", got)
	}
	if _, err := NewSource(spec, 1, 1, []string{writeOneCoreTrace(t, workload.MaxFootprintPages+1, 1,
		workload.Access{Gap: 1})}); err == nil {
		t.Fatal("accepted a footprint a phase stream cannot address")
	}
}
