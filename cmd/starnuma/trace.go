package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"starnuma/internal/evtrace"
	"starnuma/internal/sim"
)

var traceGroup = group{
	name:    "trace",
	summary: "inspect event traces recorded with -trace (Chrome trace_event JSON)",
	notes: `Times accept ps (bare), ns, us, ms suffixes; cats are comma-separated.
`,
	cmds: []command{
		{"summarize", "[-require cats] trace.json", "per-category event/span counts and durations", traceSummarize},
		{"slice", "[-from T] [-to T] [-cat cats] [-o out.json] trace.json", "validate, filter by time range and/or categories, and canonically re-encode (no flags: the whole trace)", traceSlice},
		{"top", "[-n N] [-cat cats] trace.json", "list the longest spans", traceTop},
	},
}

// loadTrace parses a command's flags and decodes its single trace
// argument.
func loadTrace(fs *flag.FlagSet, args []string) (*evtrace.Trace, error) {
	if err := parse(fs, args, 1, 1); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return nil, err
	}
	return evtrace.Decode(data)
}

// parseTime parses a time operand: picoseconds bare, or with an
// ns/us/ms suffix.
func parseTime(s string) (sim.Time, error) {
	mult := sim.Time(1)
	switch {
	case strings.HasSuffix(s, "ms"):
		s, mult = strings.TrimSuffix(s, "ms"), sim.Millisecond
	case strings.HasSuffix(s, "us"):
		s, mult = strings.TrimSuffix(s, "us"), sim.Microsecond
	case strings.HasSuffix(s, "ns"):
		s, mult = strings.TrimSuffix(s, "ns"), sim.Nanosecond
	case strings.HasSuffix(s, "ps"):
		s = strings.TrimSuffix(s, "ps")
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad time %q: %w", s, err)
	}
	return sim.Time(v * float64(mult)), nil
}

// catSet parses a comma-separated category list; nil means "all".
func catSet(s string) map[string]bool {
	if s == "" {
		return nil
	}
	set := make(map[string]bool)
	for _, c := range strings.Split(s, ",") {
		if c = strings.TrimSpace(c); c != "" {
			set[c] = true
		}
	}
	return set
}

func traceSummarize(fs *flag.FlagSet, args []string) error {
	require := fs.String("require", "", "comma-separated categories that must have recorded events (exit 1 otherwise)")
	tr, err := loadTrace(fs, args)
	if err != nil {
		return err
	}
	if err := tr.Validate(); err != nil {
		return err
	}
	stats := tr.CatStats()
	fmt.Printf("%-12s %8s %8s %14s %14s\n", "category", "events", "spans", "total", "max")
	var total int
	for _, st := range stats {
		total += st.Events
		fmt.Printf("%-12s %8d %8d %13.3fus %13.3fus\n",
			st.Cat, st.Events, st.Spans, st.TotalDur.Nanos()/1000, st.MaxDur.Nanos()/1000)
	}
	fmt.Printf("%d events in %d categories\n", total, len(stats))
	if *require != "" {
		byCat := make(map[string]int)
		for _, st := range stats {
			byCat[st.Cat] = st.Events
		}
		var missing []string
		for c := range catSet(*require) {
			if byCat[c] == 0 {
				missing = append(missing, c)
			}
		}
		if len(missing) > 0 {
			sort.Strings(missing)
			return fmt.Errorf("required categories with no events: %s", strings.Join(missing, ", "))
		}
	}
	return nil
}

// filter returns the events within [from, to] (spans by overlap) whose
// category is in cats (nil = all). Metadata events always pass so the
// sliced trace stays schema-valid.
func filter(tr *evtrace.Trace, from, to sim.Time, cats map[string]bool) *evtrace.Trace {
	out := &evtrace.Trace{}
	for _, e := range tr.Events {
		if e.Ph == evtrace.PhMeta {
			out.Events = append(out.Events, e)
			continue
		}
		if cats != nil && !cats[e.Cat] {
			continue
		}
		if e.Ts+e.Dur < from || (to > 0 && e.Ts > to) {
			continue
		}
		out.Events = append(out.Events, e)
	}
	return out
}

// traceSlice validates a trace and re-encodes the events filter keeps.
// With no flags filter keeps every event, so the output is the trace's
// canonical encoding.
func traceSlice(fs *flag.FlagSet, args []string) error {
	fromS := fs.String("from", "0", "range start (e.g. 10us)")
	toS := fs.String("to", "0", "range end (0 = unbounded)")
	cat := fs.String("cat", "", "comma-separated category filter")
	out := fs.String("o", "", "output file (default stdout)")
	tr, err := loadTrace(fs, args)
	if err != nil {
		return err
	}
	if err := tr.Validate(); err != nil {
		return err
	}
	from, err := parseTime(*fromS)
	if err != nil {
		return err
	}
	to, err := parseTime(*toS)
	if err != nil {
		return err
	}
	b, err := filter(tr, from, to, catSet(*cat)).Encode()
	if err != nil {
		return err
	}
	return writeOut(*out, b)
}

func traceTop(fs *flag.FlagSet, args []string) error {
	n := fs.Int("n", 10, "number of spans to list")
	cat := fs.String("cat", "", "comma-separated category filter")
	tr, err := loadTrace(fs, args)
	if err != nil {
		return err
	}
	cats := catSet(*cat)
	var spans []evtrace.TraceEvent
	for _, e := range tr.Events {
		if e.Ph != evtrace.PhSpan || (cats != nil && !cats[e.Cat]) {
			continue
		}
		spans = append(spans, e)
	}
	// Longest first; ties break on (ts, name) so output is stable.
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Dur != spans[j].Dur {
			return spans[i].Dur > spans[j].Dur
		}
		if spans[i].Ts != spans[j].Ts {
			return spans[i].Ts < spans[j].Ts
		}
		return spans[i].Name < spans[j].Name
	})
	if len(spans) > *n {
		spans = spans[:*n]
	}
	fmt.Printf("%-12s %-24s %14s %14s\n", "category", "name", "ts", "dur")
	for _, e := range spans {
		fmt.Printf("%-12s %-24s %13.3fus %13.3fus\n",
			e.Cat, e.Name, e.Ts.Nanos()/1000, e.Dur.Nanos()/1000)
	}
	return nil
}
