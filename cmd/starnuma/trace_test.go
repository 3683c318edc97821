package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"starnuma/internal/evtrace"
	"starnuma/internal/sim"
)

func TestParseTime(t *testing.T) {
	cases := []struct {
		in   string
		want sim.Time
	}{
		{"0", 0},
		{"1500", 1500},
		{"1500ps", 1500},
		{"2ns", 2 * sim.Nanosecond},
		{"1.5us", sim.Microsecond + 500*sim.Nanosecond},
		{"3ms", 3 * sim.Millisecond},
	}
	for _, c := range cases {
		got, err := parseTime(c.in)
		if err != nil {
			t.Fatalf("parseTime(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Errorf("parseTime(%q) = %d, want %d", c.in, got, c.want)
		}
	}
	if _, err := parseTime("abcus"); err == nil {
		t.Error("parseTime(abcus) should fail")
	}
}

func TestFilter(t *testing.T) {
	buf := evtrace.NewBuffer()
	buf.Span("window", "w0", "sim", 0, 10*sim.Microsecond)
	buf.Span("migrate", "m", "socket0", 5*sim.Microsecond, sim.Microsecond)
	buf.Instant("tlb", "shoot", "socket1", 20*sim.Microsecond)

	bd := evtrace.NewBuilder()
	bd.Add("", buf)
	tr := bd.Build()
	meta := 0
	for _, e := range tr.Events {
		if e.Ph == evtrace.PhMeta {
			meta++
		}
	}

	// Category filter keeps metadata plus the matching events.
	got := filter(tr, 0, 0, map[string]bool{"migrate": true})
	if want := meta + 1; len(got.Events) != want {
		t.Errorf("cat filter: %d events, want %d", len(got.Events), want)
	}

	// Time filter: [0, 4us] overlaps the window span only.
	got = filter(tr, 0, 4*sim.Microsecond, nil)
	if want := meta + 1; len(got.Events) != want {
		t.Errorf("time filter: %d events, want %d", len(got.Events), want)
	}

	// Unbounded end keeps everything.
	got = filter(tr, 0, 0, nil)
	if len(got.Events) != len(tr.Events) {
		t.Errorf("no-op filter: %d events, want %d", len(got.Events), len(tr.Events))
	}
}

func TestCatSet(t *testing.T) {
	if catSet("") != nil {
		t.Error("empty list should be nil (match all)")
	}
	set := catSet("migrate, window,")
	if len(set) != 2 || !set["migrate"] || !set["window"] {
		t.Errorf("catSet = %v", set)
	}
}

// TestSliceWithoutFlagsReencodes: a flagless `trace slice` of a
// recorded trace is its canonical encoding, Decode then Encode, and a
// trace that fails Validate is rejected rather than re-encoded.
func TestSliceWithoutFlagsReencodes(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.json")
	if _, stderr, code := runCLI(t, "-exp", "fig8a", "-quick", "-scale", "0.05", "-phases", "2",
		"-workloads", "BFS", "-trace", path); code != exitOK {
		t.Fatalf("recording the trace: exit %d: %s", code, stderr)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := evtrace.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	want, err := tr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	stdout, stderr, code := runCLI(t, "trace", "slice", path)
	if code != exitOK || stdout != string(want) {
		t.Errorf("trace slice: exit %d, %d bytes, want Decode+Encode's %d bytes: %s",
			code, len(stdout), len(want), stderr)
	}

	// An event on a pid with no process_name metadata fails Validate.
	bad := filepath.Join(dir, "bad.json")
	doc := `{"traceEvents":[{"name":"w","cat":"window","ph":"X","ts":0,"dur":1,"pid":1,"tid":1}]}`
	if err := os.WriteFile(bad, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout, stderr, code = runCLI(t, "trace", "slice", bad)
	if code != exitRuntime || stdout != "" || !strings.Contains(stderr, "process_name") {
		t.Errorf("invalid trace: exit %d, stdout %q, stderr %q; want exit %d and a process_name error",
			code, stdout, stderr, exitRuntime)
	}
}
