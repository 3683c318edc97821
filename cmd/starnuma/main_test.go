package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"starnuma/internal/exp"
	"starnuma/internal/trace"
)

// runCLI runs one in-process invocation with stdout and stderr captured.
func runCLI(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	dir := t.TempDir()
	outF, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	errF, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	oldOut, oldErr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = outF, errF
	code = run(args)
	os.Stdout, os.Stderr = oldOut, oldErr
	outF.Close()
	errF.Close()
	o, _ := os.ReadFile(outF.Name())
	e, _ := os.ReadFile(errF.Name())
	return string(o), string(e), code
}

func TestDispatchExitCodes(t *testing.T) {
	dir := t.TempDir()
	bench := func(name, doc string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := bench("base.json", `{"suite_seconds": 100, "windows_done": 800, "windows_per_sec": 8}`)
	same := bench("same.json", `{"suite_seconds": 101, "windows_done": 800, "windows_per_sec": 7.9}`)
	slow := bench("slow.json", `{"suite_seconds": 200, "windows_done": 800, "windows_per_sec": 4}`)
	zero := bench("zero.json", `{"suite_seconds": 1, "windows_done": 0, "windows_per_sec": 0}`)
	for _, c := range []struct {
		args []string
		code int
	}{
		{[]string{"bench", "gate", base, same}, exitOK},
		{[]string{"bench", "gate", base, slow}, exitAssertion},
		{[]string{"bench", "gate", base, zero}, exitUsage},
		{[]string{"bench", "gate", base, filepath.Join(dir, "missing.json")}, exitUsage},
		{[]string{"bench", "gate", base}, exitUsage},
		{[]string{"help"}, exitOK},
		{[]string{"bogus"}, exitUsage},
		{[]string{"metrics"}, exitUsage},
		{[]string{"metrics", "help"}, exitOK},
		{[]string{"trace", "-h"}, exitOK},
		{[]string{"trace", "bogus"}, exitUsage},
		{[]string{"metrics", "dump"}, exitUsage},
		{[]string{"metrics", "top", "-bogus", "m.json"}, exitUsage},
		{[]string{"workload", "dump", "-h"}, exitOK},
		{[]string{"policy", "list"}, exitOK},
	} {
		_, _, code := runCLI(t, c.args...)
		if code != c.code {
			t.Errorf("starnuma %s: exit %d, want %d", strings.Join(c.args, " "), code, c.code)
		}
	}
}

// TestHelpListsEveryGroup checks that top-level help and an unknown
// word both print every group of the table.
func TestHelpListsEveryGroup(t *testing.T) {
	help, _, _ := runCLI(t, "help")
	_, unknown, _ := runCLI(t, "bogus")
	for _, g := range groups {
		for _, text := range []string{help, unknown} {
			if !strings.Contains(text, "\n  "+g.name+" ") {
				t.Errorf("usage does not list group %q:\n%s", g.name, text)
			}
		}
	}
}

func TestWorkloadListAndShow(t *testing.T) {
	out, _, code := runCLI(t, "workload", "list")
	if code != exitOK {
		t.Fatalf("workload list: exit %d", code)
	}
	if lines := strings.Split(strings.TrimSpace(out), "\n"); len(lines) != 9 || !strings.Contains(out, "\nBFS ") {
		t.Errorf("workload list: want a header and 8 workloads:\n%s", out)
	}
	out, _, code = runCLI(t, "workload", "show", "-scale", "0.05", "TC")
	if code != exitOK {
		t.Fatalf("workload show: exit %d", code)
	}
	if !strings.Contains(out, "== sharing: TC page sharing and access distributions ==") ||
		!strings.Contains(out, "accesses(measured)") {
		t.Errorf("workload show lacks the Fig. 2/13 sharing table:\n%s", out)
	}
	for _, args := range [][]string{{"list", "-scale", "0"}, {"show", "nope"}} {
		if _, _, code := runCLI(t, append([]string{"workload"}, args...)...); code != exitRuntime {
			t.Errorf("workload %v: exit %d, want %d", args, code, exitRuntime)
		}
	}
}

func TestWorkloadDumpWritesReadableTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tpcc.p2.sntr")
	out, _, code := runCLI(t, "workload", "dump", "-workload", "TPCC", "-phase", "2",
		"-instr", "5000", "-scale", "0.05", "-o", path)
	if code != exitOK {
		t.Fatalf("workload dump: exit %d", code)
	}
	if !strings.HasSuffix(out, " to "+path+"\n") {
		t.Errorf("dump output %q does not name %s", out, path)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	if h := r.Header(); h.Workload != "TPCC" || h.Phase != 2 || h.Cores != 64 {
		t.Errorf("header %+v does not match the flags", h)
	}
	if _, err := r.Read(); err != nil {
		t.Errorf("first record: %v", err)
	}

	bad := filepath.Join(t.TempDir(), "bad.sntr")
	if _, _, code := runCLI(t, "workload", "dump", "-phase", "-1", "-instr", "5000", "-o", bad); code != exitUsage {
		t.Errorf("dump -phase -1: exit %d, want %d", code, exitUsage)
	}
	if _, err := os.Stat(bad); err == nil {
		t.Error("dump -phase -1 wrote a file")
	}
}

// TestOneErrorLinePerFailure checks that a failing command reports on
// exactly one stderr line, prefixed once with the command's name.
func TestOneErrorLinePerFailure(t *testing.T) {
	empty := filepath.Join(t.TempDir(), "empty.json")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"metrics", "dump", empty}, "starnuma metrics dump: " + empty + ": not a JSON document: unexpected end of JSON input"},
		{[]string{"metrics", "diff", empty, empty}, "starnuma metrics diff: " + empty + ": not a JSON document: unexpected end of JSON input"},
		{[]string{"trace", "summarize", empty}, "starnuma trace summarize: evtrace: decode: unexpected end of JSON input"},
		{[]string{"prof", "report", empty}, "starnuma prof report: attrib: parse profile document: unexpected end of JSON input"},
		{[]string{"workload", "dump", "-workload", "nope"}, `starnuma workload dump: workload: unknown workload "nope"`},
	} {
		_, stderr, code := runCLI(t, c.args...)
		if code != exitRuntime || stderr != c.want+"\n" {
			t.Errorf("%v: exit %d, stderr %q; want exit %d and %q", c.args, code, stderr, exitRuntime, c.want)
		}
	}
}

// TestSuiteFramesTables runs the experiment loop over the two static
// experiments, which simulate nothing. Suite mode must frame the tables
// exactly as the committed suite output does: its header, the tables
// in order one blank line apart, and the footer. A single experiment
// prints its table alone.
func TestSuiteFramesTables(t *testing.T) {
	committed, err := os.ReadFile("../../results_quick.txt")
	if err != nil {
		t.Fatal(err)
	}
	text := func(tab *exp.Table) (string, error) { return tab.Format("text") }
	opts := exp.Quick()
	opts.Jobs = 1

	var out strings.Builder
	bench, err := runExperiments(&out, exp.NewRunner(opts), []string{"fig3", "fig4"}, true, text)
	if err != nil {
		t.Fatal(err)
	}
	fig3, _ := exp.Fig3().Format("text")
	fig4, _ := exp.Fig4().Format("text")
	header, _, _ := strings.Cut(string(committed), "== fig2:")
	body, footer, _ := strings.Cut(out.String(), "completed in ")
	if want := header + fig3 + "\n" + fig4 + "\n"; body != want {
		t.Errorf("suite body:\n%s\nwant:\n%s", body, want)
	}
	if !strings.Contains(string(committed), fig3+"\n"+fig4+"\n") {
		t.Error("fig3 and fig4 are not adjacent, one blank line apart, in results_quick.txt")
	}
	if !strings.HasSuffix(footer, " (0 runs, 0 windows, cache 0 hit / 0 miss)\n") {
		t.Errorf("suite footer %q", footer)
	}
	if len(bench.Experiments) != 2 || bench.Experiments[0].ID != "fig3" ||
		bench.Experiments[1].ID != "fig4" || bench.WindowsDone != 0 {
		t.Errorf("bench report %+v", bench)
	}

	out.Reset()
	if _, err := runExperiments(&out, exp.NewRunner(opts), []string{"fig4"}, false, text); err != nil {
		t.Fatal(err)
	}
	if out.String() != fig4 {
		t.Errorf("single experiment printed %q, want its table alone %q", out.String(), fig4)
	}
}
