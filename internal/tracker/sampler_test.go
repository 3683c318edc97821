package tracker

import "testing"

func TestSamplerFractionRoughlyRespected(t *testing.T) {
	tb := NewTable(T16, 32768, 32) // 1024 regions
	s := NewSampler(tb, 0.25, 42)
	n := 0
	for r := 0; r < tb.NumRegions(); r++ {
		if s.Sampled(r) {
			n++
		}
	}
	frac := float64(n) / float64(tb.NumRegions())
	if frac < 0.18 || frac > 0.32 {
		t.Fatalf("sampled fraction = %v, want ~0.25", frac)
	}
}

func TestSamplerFullCoverage(t *testing.T) {
	tb := NewTable(T16, 1024, 32)
	s := NewSampler(tb, 1.0, 1)
	for r := 0; r < tb.NumRegions(); r++ {
		if !s.Sampled(r) {
			t.Fatalf("region %d unsampled at frac 1.0", r)
		}
	}
}

func TestSamplerInvalidFracPanics(t *testing.T) {
	tb := NewTable(T16, 1024, 32)
	for _, f := range []float64{0, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("frac %v accepted", f)
				}
			}()
			NewSampler(tb, f, 1)
		}()
	}
}

// Only sampled regions are poisoned, so only their pages fault (and the
// fault handler is what records an access); consuming the faults leaves
// the metadata table untouched.
func TestSamplerRecordsOnlySampledRegions(t *testing.T) {
	tb := NewTable(T16, 1024, 32)
	s := NewSampler(tb, 0.5, 7)
	for page := uint32(0); page < 1024; page++ {
		sampled := s.Sampled(tb.RegionOf(page))
		if s.WouldFault(page) != sampled {
			t.Fatalf("page %d: faults=%v sampled=%v", page, !sampled, sampled)
		}
		s.MarkFaulted(page)
		if s.WouldFault(page) {
			t.Fatalf("page %d still faults after MarkFaulted", page)
		}
	}
	for r := 0; r < tb.NumRegions(); r++ {
		if tb.SharerCount(r) != 0 {
			t.Fatalf("region %d: fault bookkeeping wrote metadata", r)
		}
	}
}

func TestSamplerFaultsOncePerPagePerPhase(t *testing.T) {
	tb := NewTable(T16, 1024, 32)
	s := NewSampler(tb, 1.0, 7)
	if !s.WouldFault(5) {
		t.Fatal("first access would not fault")
	}
	s.MarkFaulted(5)
	if s.WouldFault(5) {
		t.Fatal("second access would fault")
	}
	s.MarkFaulted(5) // a consumed fault stays consumed
	if s.WouldFault(5) {
		t.Fatal("page faults again within the phase")
	}
	s.ResetPhase(1)
	if !s.WouldFault(5) {
		t.Fatal("post-reset access would not fault")
	}
}

func TestSamplerPhaseRedrawIsDeterministic(t *testing.T) {
	tb1 := NewTable(T16, 4096, 32)
	tb2 := NewTable(T16, 4096, 32)
	s1 := NewSampler(tb1, 0.3, 99)
	s2 := NewSampler(tb2, 0.3, 99)
	s1.ResetPhase(4)
	s2.ResetPhase(4)
	for r := 0; r < tb1.NumRegions(); r++ {
		if s1.Sampled(r) != s2.Sampled(r) {
			t.Fatalf("sample draw not deterministic at region %d", r)
		}
	}
	// Different phases draw different samples.
	s2.ResetPhase(5)
	same := 0
	for r := 0; r < tb1.NumRegions(); r++ {
		if s1.Sampled(r) == s2.Sampled(r) {
			same++
		}
	}
	if same == tb1.NumRegions() {
		t.Fatal("phase 5 sample identical to phase 4")
	}
}

func TestSamplerWouldFaultAndMark(t *testing.T) {
	tb := NewTable(T16, 1024, 32)
	s := NewSampler(tb, 1.0, 7)
	if !s.WouldFault(9) {
		t.Fatal("fresh sampled page should fault")
	}
	s.MarkFaulted(9)
	if s.WouldFault(9) {
		t.Fatal("marked page still faults")
	}
	// WouldFault must not record metadata.
	if tb.SharerCount(tb.RegionOf(9)) != 0 {
		t.Fatal("WouldFault mutated the table")
	}
}
