package migrate

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"starnuma/internal/tracker"
)

// TestFoldIntoMatchesRecord is the differential test of the tracker
// fold: three phases of a seeded random (socket, page) stream go through
// the per-access reference (Table.Record on every access to a kept
// region) and through PageCounts.FoldInto, and the two tables must be
// identical after every phase — sharer bits, saturating counters,
// records seen and flushes. The footprint is prime, so every region
// size above one leaves a short last region; phase 1 drives region 0
// past the T16 counter's 65535, and no phase total is a multiple of the
// 32-record annex batch, so the flush remainder carries across Reset.
func TestFoldIntoMatchesRecord(t *testing.T) {
	const (
		sockets = 16
		pages   = 10_007
	)
	phaseLen := []int{4_001, 70_003, 9_997}
	for _, kind := range []tracker.Kind{tracker.T16, tracker.T0} {
		for _, rp := range []int{1, 8, 32, 128} {
			for _, frac := range []float64{0, 0.05, 1} {
				t.Run(fmt.Sprintf("%v/r%d/sample%v", kind, rp, frac), func(t *testing.T) {
					ref := tracker.NewTable(kind, pages, rp)
					fold := tracker.NewTable(kind, pages, rp)
					var refKeep, foldKeep func(int) bool
					var refS, foldS *tracker.Sampler
					if frac > 0 {
						refS = tracker.NewSampler(ref, frac, 3)
						foldS = tracker.NewSampler(fold, frac, 3)
						refKeep, foldKeep = refS.Sampled, foldS.Sampled
					}
					rng := rand.New(rand.NewSource(int64(rp) + 1))
					for phase, n := range phaseLen {
						if frac > 0 {
							refS.ResetPhase(phase)
							foldS.ResetPhase(phase)
						} else {
							ref.Reset()
							fold.Reset()
						}
						counts := NewPageCounts(pages, sockets)
						for i := 0; i < n; i++ {
							page := uint32(rng.Intn(pages))
							if phase == 1 && i%16 != 0 {
								page = 0 // the hot page saturates region 0
							}
							socket := rng.Intn(sockets)
							if refKeep == nil || refKeep(ref.RegionOf(page)) {
								ref.Record(socket, page)
							}
							counts.Record(socket, page)
						}
						counts.FoldInto(fold, foldKeep)
						if !reflect.DeepEqual(ref, fold) {
							t.Fatalf("phase %d: folded table differs from per-access Record", phase)
						}
						if phase == 1 && kind == tracker.T16 && frac != 0.05 && ref.Count(0) != 0xFFFF {
							t.Fatalf("region 0 count = %d, want saturation", ref.Count(0))
						}
					}
					if ref.Flushes() == 0 {
						t.Fatal("no flushes: the case exercised nothing")
					}
				})
			}
		}
	}
}

func TestFoldIntoRejectsForeignShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FoldInto accepted a tracker over another footprint")
		}
	}()
	NewPageCounts(100, 4).FoldInto(tracker.NewTable(tracker.T16, 200, 32), nil)
}
