package evtrace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"starnuma/internal/sim"
)

// TraceEvent is one event of an assembled Trace, with its timeline
// coordinates (pid/tid) resolved. Ts and Dur are simulated picoseconds;
// the codec maps them onto the trace clock as microsecond ticks with
// six fractional digits, so one trace-clock microsecond renders one
// simulated microsecond and picosecond precision survives the round
// trip exactly.
type TraceEvent struct {
	Name string
	Cat  string
	Ph   string
	Ts   sim.Time
	Dur  sim.Time
	Pid  int64
	Tid  int64
	Args map[string]string
}

// Trace is an assembled, serializable event timeline — the document
// `starnuma trace` reads and Perfetto/chrome://tracing load.
type Trace struct {
	Events []TraceEvent
}

// group is one Builder input: a buffer whose lanes are namespaced under
// prefix.
type group struct {
	prefix string
	buf    *Buffer
}

// Builder assembles recording buffers into a Trace. Each Add namespaces
// a buffer's lanes under a prefix (typically the run label, e.g.
// "starnuma-t16/BFS"), so multiple simulations and the runner's
// wall-clock lane coexist on one timeline. Build assigns pids to sorted
// process names and tids to sorted thread names, and emits the
// process_name/thread_name metadata Perfetto uses for labels — the
// output is a pure function of the added buffers.
type Builder struct {
	groups []group
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder { return &Builder{} }

// Add appends a buffer under the given lane prefix ("" for none). Nil
// buffers are ignored.
func (bd *Builder) Add(prefix string, b *Buffer) {
	if b == nil || len(b.Events) == 0 {
		return
	}
	bd.groups = append(bd.groups, group{prefix: prefix, buf: b})
}

// splitLane resolves an event's lane under a prefix into process and
// thread names. The lane's first path segment is the process, the rest
// the thread; empty parts default to "main".
func splitLane(prefix, lane string) (proc, thread string) {
	proc, thread, _ = strings.Cut(lane, "/")
	if proc == "" {
		proc = "main"
	}
	if thread == "" {
		thread = "main"
	}
	if prefix != "" {
		proc = prefix + "/" + proc
	}
	return proc, thread
}

// Build assembles the added buffers into a Trace.
func (bd *Builder) Build() *Trace {
	// First pass: collect the process/thread name sets.
	procSet := make(map[string]map[string]bool)
	for _, g := range bd.groups {
		for i := range g.buf.Events {
			proc, thread := splitLane(g.prefix, g.buf.Events[i].Lane)
			if procSet[proc] == nil {
				procSet[proc] = make(map[string]bool)
			}
			procSet[proc][thread] = true
		}
	}
	procs := make([]string, 0, len(procSet))
	for p := range procSet {
		procs = append(procs, p)
	}
	sort.Strings(procs)

	t := &Trace{}
	pidOf := make(map[string]int64, len(procs))
	tidOf := make(map[string]int64)
	for i, p := range procs {
		pid := int64(i + 1)
		pidOf[p] = pid
		t.Events = append(t.Events, TraceEvent{
			Name: "process_name", Ph: PhMeta, Pid: pid,
			Args: map[string]string{"name": p},
		})
		threads := make([]string, 0, len(procSet[p]))
		for th := range procSet[p] {
			threads = append(threads, th)
		}
		sort.Strings(threads)
		for j, th := range threads {
			tid := int64(j)
			tidOf[p+"\x00"+th] = tid
			t.Events = append(t.Events, TraceEvent{
				Name: "thread_name", Ph: PhMeta, Pid: pid, Tid: tid,
				Args: map[string]string{"name": th},
			})
		}
	}

	// Second pass: emit the events in added/recorded order.
	for _, g := range bd.groups {
		for i := range g.buf.Events {
			e := &g.buf.Events[i]
			proc, thread := splitLane(g.prefix, e.Lane)
			te := TraceEvent{
				Name: e.Name, Cat: e.Cat, Ph: e.Ph,
				Ts: e.Ts, Dur: e.Dur,
				Pid: pidOf[proc], Tid: tidOf[proc+"\x00"+thread],
			}
			if len(e.Args) > 0 {
				te.Args = make(map[string]string, len(e.Args))
				for _, a := range e.Args {
					te.Args[a.Key] = a.Val
				}
			}
			t.Events = append(t.Events, te)
		}
	}
	return t
}

// formatPS renders a picosecond quantity as canonical trace-clock
// microseconds: an exact decimal with six fractional digits.
func formatPS(t sim.Time) string {
	v := int64(t)
	u := uint64(v)
	sign := ""
	if v < 0 {
		sign = "-"
		u = uint64(-v)
	}
	return fmt.Sprintf("%s%d.%06d", sign, u/1_000_000, u%1_000_000)
}

// isDigits reports whether s is one or more ASCII digits.
func isDigits(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

// parsePS parses a trace-clock microsecond number back into
// picoseconds. Canonical decimals (what formatPS emits) parse exactly;
// exotic but valid JSON numbers (exponents) fall back to float parsing;
// unrepresentable values return an error, never a panic.
func parsePS(num string) (sim.Time, error) {
	if num == "" {
		return 0, nil
	}
	s := num
	neg := false
	if strings.HasPrefix(s, "-") {
		neg, s = true, s[1:]
	}
	intPart, fracPart, hasFrac := strings.Cut(s, ".")
	if isDigits(intPart) && (!hasFrac || isDigits(fracPart)) {
		if us, err := strconv.ParseUint(intPart, 10, 64); err == nil && us <= math.MaxInt64/1_000_000 {
			f := fracPart
			if len(f) > 6 {
				f = f[:6] // sub-picosecond digits: beyond the clock's resolution
			}
			for len(f) < 6 {
				f += "0"
			}
			fv, _ := strconv.ParseInt(f, 10, 64)
			ps := int64(us)*1_000_000 + fv
			if neg {
				ps = -ps
			}
			return sim.Time(ps), nil
		}
	}
	v, err := strconv.ParseFloat(num, 64)
	if err != nil {
		return 0, fmt.Errorf("evtrace: bad timestamp %q: %w", num, err)
	}
	ps := v * 1e6
	if math.IsNaN(ps) || ps > math.MaxInt64/2 || ps < -math.MaxInt64/2 {
		return 0, fmt.Errorf("evtrace: timestamp %q out of range", num)
	}
	return sim.Time(int64(ps)), nil
}

// Encode renders the trace as canonical Chrome trace_event JSON (the
// "JSON object format": a traceEvents array plus displayTimeUnit).
// Field order, number formatting and args-key order are all fixed, so
// identical traces encode byte-identically — the contract the
// worker-count determinism test pins.
func (t *Trace) Encode() ([]byte, error) {
	var b bytes.Buffer
	b.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`)
	for i := range t.Events {
		if i > 0 {
			b.WriteByte(',')
		}
		if err := encodeEvent(&b, &t.Events[i]); err != nil {
			return nil, err
		}
	}
	b.WriteString("]}\n")
	return b.Bytes(), nil
}

// encodeEvent writes one event object. Empty cat and args are omitted
// (Decode normalizes them back), everything else is always present.
func encodeEvent(b *bytes.Buffer, e *TraceEvent) error {
	writeStr := func(key, val string) error {
		j, err := json.Marshal(val)
		if err != nil {
			return err
		}
		fmt.Fprintf(b, `"%s":%s,`, key, j)
		return nil
	}
	b.WriteByte('{')
	if err := writeStr("name", e.Name); err != nil {
		return err
	}
	if e.Cat != "" {
		if err := writeStr("cat", e.Cat); err != nil {
			return err
		}
	}
	if err := writeStr("ph", e.Ph); err != nil {
		return err
	}
	fmt.Fprintf(b, `"ts":%s,"dur":%s,"pid":%d,"tid":%d`,
		formatPS(e.Ts), formatPS(e.Dur), e.Pid, e.Tid)
	if len(e.Args) > 0 {
		j, err := json.Marshal(e.Args) // map keys sort deterministically
		if err != nil {
			return err
		}
		fmt.Fprintf(b, `,"args":%s`, j)
	}
	b.WriteByte('}')
	return nil
}

// jsonEvent is the decoding shape of one trace event. Ts/Dur decode as
// json.Number so the literal digits reach parsePS un-rounded.
type jsonEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   json.Number       `json:"ts"`
	Dur  json.Number       `json:"dur"`
	Pid  int64             `json:"pid"`
	Tid  int64             `json:"tid"`
	Args map[string]string `json:"args"`
}

// Decode parses Chrome trace_event JSON — the object format Encode
// emits, or the bare-array legacy format — back into a Trace. Corrupt
// input returns an error, never a panic, and anything Decode accepts
// re-encodes losslessly (FuzzTraceRoundTrip).
func Decode(data []byte) (*Trace, error) {
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	var raw []jsonEvent
	if len(trimmed) > 0 && trimmed[0] == '[' {
		if err := json.Unmarshal(trimmed, &raw); err != nil {
			return nil, fmt.Errorf("evtrace: decode: %w", err)
		}
	} else {
		var doc struct {
			TraceEvents []jsonEvent `json:"traceEvents"`
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			return nil, fmt.Errorf("evtrace: decode: %w", err)
		}
		raw = doc.TraceEvents
	}
	t := &Trace{}
	for i := range raw {
		ts, err := parsePS(string(raw[i].Ts))
		if err != nil {
			return nil, fmt.Errorf("evtrace: event %d: %w", i, err)
		}
		dur, err := parsePS(string(raw[i].Dur))
		if err != nil {
			return nil, fmt.Errorf("evtrace: event %d: %w", i, err)
		}
		args := raw[i].Args
		if len(args) == 0 {
			args = nil // canonical: absent and empty args are the same
		}
		t.Events = append(t.Events, TraceEvent{
			Name: raw[i].Name, Cat: raw[i].Cat, Ph: raw[i].Ph,
			Ts: ts, Dur: dur, Pid: raw[i].Pid, Tid: raw[i].Tid, Args: args,
		})
	}
	return t, nil
}

// Validate checks the trace against the subset of the trace_event
// schema this package emits: known phase types, named events,
// non-negative coordinates, and a process_name metadata record for
// every pid that carries events. This is the in-repo schema check the
// Perfetto-loadability criterion relies on.
func (t *Trace) Validate() error {
	named := make(map[int64]bool)
	for i := range t.Events {
		e := &t.Events[i]
		if e.Ph == PhMeta && e.Name == "process_name" {
			named[e.Pid] = true
		}
	}
	for i := range t.Events {
		e := &t.Events[i]
		switch e.Ph {
		case PhSpan, PhInstant, PhMeta:
		default:
			return fmt.Errorf("evtrace: event %d: unknown phase type %q", i, e.Ph)
		}
		if e.Name == "" {
			return fmt.Errorf("evtrace: event %d: empty name", i)
		}
		if e.Ph == PhMeta {
			continue
		}
		if e.Ts < 0 || e.Dur < 0 {
			return fmt.Errorf("evtrace: event %d (%s): negative ts/dur %v/%v", i, e.Name, e.Ts, e.Dur)
		}
		if !named[e.Pid] {
			return fmt.Errorf("evtrace: event %d (%s): pid %d has no process_name metadata", i, e.Name, e.Pid)
		}
	}
	return nil
}

// CatStat summarises one category's events — the unit `starnuma trace
// summarize` reports and CI's -require check gates on.
type CatStat struct {
	Cat      string
	Events   int      // spans + instants
	Spans    int      // complete ("X") events
	TotalDur sim.Time // summed span duration
	MaxDur   sim.Time // longest single span
}

// CatStats aggregates the trace's non-metadata events per category,
// sorted by category name.
func (t *Trace) CatStats() []CatStat {
	byCat := make(map[string]*CatStat)
	var cats []string
	for i := range t.Events {
		e := &t.Events[i]
		if e.Ph == PhMeta {
			continue
		}
		st := byCat[e.Cat]
		if st == nil {
			st = &CatStat{Cat: e.Cat}
			byCat[e.Cat] = st
			cats = append(cats, e.Cat)
		}
		st.Events++
		if e.Ph == PhSpan {
			st.Spans++
			st.TotalDur += e.Dur
			if e.Dur > st.MaxDur {
				st.MaxDur = e.Dur
			}
		}
	}
	sort.Strings(cats)
	out := make([]CatStat, 0, len(cats))
	for _, c := range cats {
		out = append(out, *byCat[c])
	}
	return out
}
