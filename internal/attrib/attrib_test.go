package attrib

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestCategoryNames(t *testing.T) {
	seen := map[string]bool{}
	for c := Category(0); c < NumCategories; c++ {
		n := c.String()
		if n == "" || strings.HasPrefix(n, "Category(") {
			t.Fatalf("category %d has no name", c)
		}
		if seen[n] {
			t.Fatalf("duplicate category name %q", n)
		}
		seen[n] = true
		for _, r := range n {
			if !(r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '-' || r == '_') {
				t.Fatalf("category %q breaks the metric-name grammar (rune %q)", n, r)
			}
		}
		got, ok := ByName(n)
		if !ok || got != c {
			t.Fatalf("ByName(%q) = %v, %v", n, got, ok)
		}
	}
	if _, ok := ByName("no-such-category"); ok {
		t.Fatal("ByName accepted an unknown name")
	}
	if len(Names()) != int(NumCategories) {
		t.Fatalf("Names() has %d entries", len(Names()))
	}
	if Category(200).String() == "" {
		t.Fatal("out-of-range String empty")
	}
}

func TestLedgerChargeAndWindow(t *testing.T) {
	l := NewLedger(3)
	if l.Sockets() != 3 {
		t.Fatalf("sockets = %d", l.Sockets())
	}
	l.Charge(0, DRAM, 100)
	l.Charge(2, DRAM, 50)
	l.Charge(1, CXLQueue, 7)
	w := l.Window(4, 157)
	n := int(NumCategories)
	if w.Cells[DRAM] != 100 || w.Cells[2*n+int(DRAM)] != 50 || w.Cells[n+int(CXLQueue)] != 7 {
		t.Fatalf("window cells %v", w.Cells)
	}
	if w.Phase != 4 || w.TotalPS != 157 {
		t.Fatalf("window header %+v", w)
	}
	if w.Sum() != 157 {
		t.Fatalf("window sum = %d", w.Sum())
	}
	// The snapshot must not alias the ledger.
	l.Charge(0, DRAM, 1)
	if w.Sum() != 157 {
		t.Fatal("window snapshot aliases ledger cells")
	}
	l.Reset()
	if l.Window(0, 0).Sum() != 0 {
		t.Fatal("Reset left charges behind")
	}
}

func TestChargeAllocs(t *testing.T) {
	l := NewLedger(4)
	if allocs := testing.AllocsPerRun(1000, func() {
		l.Charge(2, LinkQueue, 123)
		l.Charge(0, DRAM, 7)
	}); allocs != 0 {
		t.Fatalf("Charge allocates %v per run, want 0", allocs)
	}
}

func testProfile() *Profile {
	p := NewProfile(2)
	l := NewLedger(2)
	l.Charge(0, DRAM, 100)
	l.Charge(1, CXLProp, 40)
	p.Append(l.Window(0, 140))
	l.Reset()
	l.Charge(0, LinkQueue, 30)
	p.Append(l.Window(1, 30))
	return p
}

func TestProfileInvariants(t *testing.T) {
	p := testProfile()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := p.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if p.Total() != 170 {
		t.Fatalf("total = %d", p.Total())
	}
	ct := p.CategoryTotals()
	if ct[DRAM] != 100 || ct[CXLProp] != 40 || ct[LinkQueue] != 30 {
		t.Fatalf("category totals %v", ct)
	}
	st := p.SocketTotals()
	if st[0] != 130 || st[1] != 40 {
		t.Fatalf("socket totals %v", st)
	}
	if f := p.Fraction("dram"); f < 0.58 || f > 0.59 {
		t.Fatalf("Fraction(dram) = %v", f)
	}
	if f := p.Fraction("unknown"); f != 0 {
		t.Fatalf("Fraction(unknown) = %v", f)
	}

	// Conservation violation is detected.
	p.Windows[0].TotalPS++
	if err := p.CheckConservation(); err == nil {
		t.Fatal("conservation violation undetected")
	}
	p.Windows[0].TotalPS--

	// Shape violations are detected.
	bad := testProfile()
	bad.Windows[1].Cells = bad.Windows[1].Cells[:3]
	if err := bad.Validate(); err == nil {
		t.Fatal("short cell array accepted")
	}
	if err := (&Profile{Sockets: 0, Categories: Names()}).Validate(); err == nil {
		t.Fatal("zero sockets accepted")
	}
	var nilP *Profile
	if err := nilP.Validate(); err == nil {
		t.Fatal("nil profile accepted")
	}
}

func testDoc() *Doc {
	return &Doc{Schema: DocSchema, Runs: []DocRun{
		{Key: "bbb", Workload: "CC", Policy: "starnuma", Profile: testProfile()},
		{Key: "aaa", Workload: "BFS", Policy: "oracle", Profile: testProfile()},
	}}
}

func TestDocRoundTrip(t *testing.T) {
	d := testDoc()
	b, err := d.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeDoc(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Runs) != 2 || got.Runs[0].Key != "aaa" {
		t.Fatalf("decoded doc %+v", got)
	}
	b2, err := got.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != string(b2) {
		t.Fatal("re-encode not byte-identical")
	}
}

func TestDecodeDocRejects(t *testing.T) {
	cases := []string{
		"",
		"{",
		`{"schema":"wrong","runs":[]}`,
		`{"schema":"starnuma-stallprof-v1","runs":[{"key":"","profile":{"sockets":1,"categories":["x"],"windows":[]}}]}`,
		`{"schema":"starnuma-stallprof-v1","runs":[{"key":"k"}]}`,
		`{"schema":"starnuma-stallprof-v1","runs":[{"key":"k","profile":{"sockets":1,"categories":["x"],"windows":[{"phase":0,"total_ps":1,"cells":[1,2]}]}}]}`,
	}
	for i, c := range cases {
		if _, err := DecodeDoc([]byte(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestGroupTotalsAndDiff(t *testing.T) {
	d := testDoc()
	all, runs, skipped := d.GroupTotals("")
	if runs != 2 || skipped != 0 {
		t.Fatalf("runs=%d skipped=%d", runs, skipped)
	}
	if all[DRAM] != 200 {
		t.Fatalf("aggregate dram = %d", all[DRAM])
	}
	only, runs, _ := d.GroupTotals("oracle")
	if runs != 1 || only[DRAM] != 100 {
		t.Fatalf("filtered runs=%d dram=%d", runs, only[DRAM])
	}
	none, runs, _ := d.GroupTotals("zzz")
	if runs != 0 || none[DRAM] != 0 {
		t.Fatal("empty filter group not empty")
	}

	a := make([]int64, NumCategories)
	b := make([]int64, NumCategories)
	a[CXLProp], a[CXLQueue] = 80, 20
	b[CXLProp], b[CXLQueue] = 20, 80
	shifts := DiffTotals(a, b)
	if shifts[CXLQueue].DeltaPP < 59 || shifts[CXLQueue].DeltaPP > 61 {
		t.Fatalf("cxl-queue shift = %v", shifts[CXLQueue].DeltaPP)
	}
	if m := MaxAbsShift(shifts); m < 59 || m > 61 {
		t.Fatalf("max shift = %v", m)
	}
	if m := MaxAbsShift(DiffTotals(a, a)); m != 0 {
		t.Fatalf("self-diff shift = %v", m)
	}
}

func TestRenderers(t *testing.T) {
	d := testDoc()
	rep := RenderReport(d, true)
	for _, want := range []string{"workload=BFS", "workload=CC", "dram", "socket"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
	if rep := RenderReport(&Doc{Schema: DocSchema}, false); !strings.Contains(rep, "no attribution runs") {
		t.Fatalf("empty report: %q", rep)
	}

	a, _, _ := d.GroupTotals("oracle")
	b, _, _ := d.GroupTotals("starnuma")
	diff := RenderDiff("oracle", "starnuma", a, b)
	if !strings.Contains(diff, "max category shift") {
		t.Fatalf("diff output:\n%s", diff)
	}

	folded := RenderFolded(d)
	if !strings.Contains(folded, "CC;socket0;dram 100") {
		t.Fatalf("folded output:\n%s", folded)
	}

	ss, err := RenderSpeedscope(d)
	if err != nil {
		t.Fatal(err)
	}
	var parsed speedscopeFile
	if err := json.Unmarshal(ss, &parsed); err != nil {
		t.Fatalf("speedscope output not JSON: %v", err)
	}
	if !strings.Contains(parsed.Schema, "file-format-schema") {
		t.Fatal("speedscope schema header missing")
	}
	if len(parsed.Shared.Frames) == 0 {
		t.Fatal("speedscope frame table empty")
	}
	if len(parsed.Profiles) != 2 {
		t.Fatalf("speedscope profiles = %d", len(parsed.Profiles))
	}
	// Every sample must index into the frame table.
	for _, p := range parsed.Profiles {
		for _, s := range p.Samples {
			for _, fi := range s {
				if fi < 0 || fi >= len(parsed.Shared.Frames) {
					t.Fatalf("sample frame index %d out of range", fi)
				}
			}
		}
	}
}
