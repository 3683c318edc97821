package workload

import (
	"math"
	"testing"
)

func TestSuiteSpecsValidate(t *testing.T) {
	specs := Suite(1)
	if len(specs) != 8 {
		t.Fatalf("suite has %d workloads", len(specs))
	}
	for _, s := range specs {
		if err := s.Validate(16); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

func TestSuiteOrderMatchesTable3(t *testing.T) {
	want := []string{"SSSP", "BFS", "CC", "TC", "Masstree", "TPCC", "FMI", "POA"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("names = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("names[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestByName(t *testing.T) {
	s, err := ByName("BFS", 1)
	if err != nil || s.Name != "BFS" {
		t.Fatalf("ByName(BFS) = %v, %v", s.Name, err)
	}
	if _, err := ByName("nope", 1); err == nil {
		t.Fatal("unknown workload did not error")
	}
	for _, scale := range []float64{0, -1} {
		if _, err := ByName("BFS", scale); err == nil {
			t.Errorf("ByName(BFS, %v) did not error", scale)
		}
	}
}

func TestSuiteScaling(t *testing.T) {
	full := Suite(1)
	half := Suite(0.5)
	for i := range full {
		if half[i].FootprintPages >= full[i].FootprintPages {
			t.Errorf("%s: scale 0.5 footprint %d !< %d",
				full[i].Name, half[i].FootprintPages, full[i].FootprintPages)
		}
	}
	tiny := Suite(0.0001)
	for _, s := range tiny {
		if s.FootprintPages < 1024 {
			t.Errorf("%s: footprint floor violated: %d", s.Name, s.FootprintPages)
		}
	}
}

func TestSuiteScalePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Suite(0)
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	base := func() Spec {
		s, _ := ByName("BFS", 1)
		return s
	}
	cases := []struct {
		name string
		mut  func(*Spec)
	}{
		{"empty name", func(s *Spec) { s.Name = "" }},
		{"zero ipc", func(s *Spec) { s.SingleSocketIPC = 0 }},
		{"zero mpki", func(s *Spec) { s.MPKI = 0 }},
		{"zero mlp", func(s *Spec) { s.MLP = 0 }},
		{"zero footprint", func(s *Spec) { s.FootprintPages = 0 }},
		{"no classes", func(s *Spec) { s.Classes = nil }},
		{"page shares", func(s *Spec) { s.Classes[0].PageShare += 0.5 }},
		{"access shares", func(s *Spec) { s.Classes[0].AccessShare += 0.5 }},
		{"sharer range", func(s *Spec) { s.Classes[0].MinSharers = 0 }},
		{"sharers exceed sockets", func(s *Spec) { s.Classes[0].MaxSharers = 99 }},
		{"write frac", func(s *Spec) { s.Classes[0].WriteFrac = 1.5 }},
		{"negative share", func(s *Spec) {
			s.Classes[0].PageShare = -0.1
			s.Classes[1].PageShare += 0.27
		}},
	}
	for _, tc := range cases {
		s := base()
		tc.mut(&s)
		if err := s.Validate(16); err == nil {
			t.Errorf("%s: Validate accepted bad spec", tc.name)
		}
	}
}

func TestZeroLoadIPC(t *testing.T) {
	s, _ := ByName("BFS", 1)
	ipc0 := s.ZeroLoadIPC(192)
	if ipc0 <= s.SingleSocketIPC {
		t.Fatalf("zero-load IPC %v not above single-socket %v", ipc0, s.SingleSocketIPC)
	}
	if ipc0 > 4 {
		t.Fatalf("zero-load IPC %v above issue width", ipc0)
	}
	// SSSP is so memory-bound that the clamp engages.
	sssp, _ := ByName("SSSP", 1)
	if got := sssp.ZeroLoadIPC(192); got != 4 {
		t.Fatalf("SSSP zero-load IPC = %v, want clamped 4", got)
	}
}

func TestMeanGap(t *testing.T) {
	s := Spec{MPKI: 32}
	if got := s.MeanGap(); got != 31.25 {
		t.Fatalf("MeanGap = %v", got)
	}
}

// Fig. 2's published BFS facts: 17% single-sharer pages, 78% with ≤4
// sharers, ~7% with >8 sharers absorbing ~68% of accesses, 2% 16-shared
// absorbing 36%.
func TestBFSSharingHistogramMatchesFig2(t *testing.T) {
	s, _ := ByName("BFS", 1)
	pages, accs := s.SharingHistogram(16)
	near := func(got, want, tol float64) bool { return math.Abs(got-want) <= tol }
	if !near(pages[1], 0.17, 0.01) {
		t.Errorf("single-sharer pages = %v, want 0.17", pages[1])
	}
	var le4, gt8pages, gt8accs float64
	for k := 1; k <= 4; k++ {
		le4 += pages[k]
	}
	for k := 9; k <= 16; k++ {
		gt8pages += pages[k]
		gt8accs += accs[k]
	}
	if !near(le4, 0.78, 0.02) {
		t.Errorf("pages with <=4 sharers = %v, want 0.78", le4)
	}
	if !near(gt8pages, 0.07, 0.01) {
		t.Errorf("pages with >8 sharers = %v, want 0.07", gt8pages)
	}
	if !near(gt8accs, 0.68, 0.03) {
		t.Errorf("accesses to >8-shared pages = %v, want 0.68", gt8accs)
	}
	if !near(accs[16], 0.36, 0.02) {
		t.Errorf("accesses to 16-shared pages = %v, want 0.36", accs[16])
	}
}

// Fig. 13's TC facts: ~60% of pages touched by all 16 sockets, ~80% by 8+.
func TestTCSharingHistogramMatchesFig13(t *testing.T) {
	s, _ := ByName("TC", 1)
	pages, _ := s.SharingHistogram(16)
	var ge8 float64
	for k := 8; k <= 16; k++ {
		ge8 += pages[k]
	}
	if math.Abs(pages[16]-0.60) > 0.02 {
		t.Errorf("16-shared pages = %v, want 0.60", pages[16])
	}
	if math.Abs(ge8-0.80) > 0.03 {
		t.Errorf("8+-shared pages = %v, want 0.80", ge8)
	}
}

func TestPOAIsEntirelyPrivate(t *testing.T) {
	s, _ := ByName("POA", 1)
	pages, accs := s.SharingHistogram(16)
	if pages[1] != 1 || accs[1] != 1 {
		t.Fatalf("POA pages[1]=%v accs[1]=%v", pages[1], accs[1])
	}
}
