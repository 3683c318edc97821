package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

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
	for _, c := range []struct {
		args []string
		code int
	}{
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
