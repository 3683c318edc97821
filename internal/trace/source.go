package trace

import (
	"fmt"
	"os"

	"starnuma/internal/workload"
)

// Source replays step-A trace files through the evaluation pipeline: it
// implements core.AccessSource, so externally captured traces (or
// traces dumped by `starnuma workload dump`) can drive steps B and C
// exactly like the synthetic generators.
//
// One file per phase, in phase order. If the pipeline asks for more
// phases than files exist, phases wrap around; if a core's stream is
// exhausted before the requested budget, it also wraps (traces are
// treated as stationary samples, like the paper's per-phase trace
// reuse).
type Source struct {
	spec           workload.Spec
	paths          []string
	sockets        int
	coresPerSocket int
	pages          int

	cur     int // currently loaded phase file index (-1 = none)
	streams [][]workload.Access

	// built is the loaded file cut at budget, kept for the next
	// PhaseStream call on the same file; nil after a load.
	built  *workload.PhaseStream
	budget uint64
}

// NewSource opens a replay source over the given per-phase trace files.
// The spec supplies the timing parameters (IPC, MPKI, MLP) the trace
// itself does not carry; its footprint is overridden by the trace
// header. All files must agree with the system shape.
func NewSource(spec workload.Spec, sockets, coresPerSocket int, paths []string) (*Source, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("trace: no trace files")
	}
	if sockets <= 0 || coresPerSocket <= 0 {
		return nil, fmt.Errorf("trace: invalid system shape %dx%d", sockets, coresPerSocket)
	}
	s := &Source{
		spec:           spec,
		paths:          paths,
		sockets:        sockets,
		coresPerSocket: coresPerSocket,
		cur:            -1,
	}
	// Validate the first file and adopt its footprint.
	h, err := s.readHeader(paths[0])
	if err != nil {
		return nil, err
	}
	if h.Cores != sockets*coresPerSocket {
		return nil, fmt.Errorf("trace: file %s has %d cores, system needs %d",
			paths[0], h.Cores, sockets*coresPerSocket)
	}
	if h.Pages > workload.MaxFootprintPages {
		return nil, fmt.Errorf("trace: file %s has %d pages, more than the %d a phase stream can address",
			paths[0], h.Pages, workload.MaxFootprintPages)
	}
	s.pages = h.Pages
	s.spec.FootprintPages = h.Pages
	if err := s.load(0); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Source) readHeader(path string) (Header, error) {
	f, err := os.Open(path)
	if err != nil {
		return Header{}, err
	}
	defer f.Close()
	r, err := NewReader(f)
	if err != nil {
		return Header{}, fmt.Errorf("trace: %s: %w", path, err)
	}
	return r.Header(), nil
}

// load reads phase file i into per-core streams.
func (s *Source) load(i int) error {
	f, err := os.Open(s.paths[i])
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := NewReader(f)
	if err != nil {
		return fmt.Errorf("trace: %s: %w", s.paths[i], err)
	}
	h := r.Header()
	if h.Cores != s.sockets*s.coresPerSocket || h.Pages != s.pages {
		return fmt.Errorf("trace: %s shape (%d cores, %d pages) disagrees with %s",
			s.paths[i], h.Cores, h.Pages, s.paths[0])
	}
	streams := make([][]workload.Access, h.Cores)
	for n := 0; ; n++ {
		rec, err := r.Read()
		if err != nil {
			break // io.EOF or truncation; partial final record dropped
		}
		if err := s.checkRecord(rec); err != nil {
			return fmt.Errorf("trace: %s: record %d: %w: %+v", s.paths[i], n, err, rec)
		}
		streams[rec.Core] = append(streams[rec.Core], rec.Access)
	}
	for c, st := range streams {
		if len(st) == 0 {
			return fmt.Errorf("trace: %s: core %d has no records", s.paths[i], c)
		}
	}
	s.streams = streams
	s.built = nil
	s.cur = i
	return nil
}

// checkRecord rejects a record that names a core or page outside the
// file's shape, or an access a recorded phase stream cannot hold: a
// zero gap would never advance a core toward its budget, and a block
// past the page would alias into the next page's blocks.
func (s *Source) checkRecord(rec Record) error {
	a := rec.Access
	switch {
	case int(rec.Core) >= s.NumCores():
		return fmt.Errorf("core %d out of range [0, %d)", rec.Core, s.NumCores())
	case int(a.Page) >= s.pages:
		return fmt.Errorf("page %d out of range [0, %d)", a.Page, s.pages)
	case a.Gap < 1 || a.Gap > workload.MaxGap:
		return fmt.Errorf("gap %d out of range [1, %d]", a.Gap, workload.MaxGap)
	case a.Block >= workload.BlocksPerPage:
		return fmt.Errorf("block %d out of range [0, %d)", a.Block, workload.BlocksPerPage)
	}
	return nil
}

// PhaseStream implements core.AccessSource: phase's file, each core's
// records replayed from the start (wrapping as often as needed) until
// the core's cumulative gap reaches budget.
func (s *Source) PhaseStream(phase int, budget uint64) *workload.PhaseStream {
	if i := phase % len(s.paths); i != s.cur {
		if err := s.load(i); err != nil {
			// Files validated at construction; a failure here means the
			// file changed underneath us — fail loudly.
			panic(fmt.Sprintf("trace: reloading phase %d: %v", phase, err))
		}
	}
	if s.built == nil || s.budget != budget {
		idx := make([]int, len(s.streams))
		s.built = workload.RecordStream(len(s.streams), budget, func(core int) workload.Access {
			st := s.streams[core]
			a := st[idx[core]]
			idx[core] = (idx[core] + 1) % len(st)
			return a
		})
		s.budget = budget
	}
	return s.built
}

// StreamSig implements core.AccessSource: a file replay vouches for no
// stream identity, so neither step memoizes it.
func (s *Source) StreamSig(uint64) string { return "" }

// ReleasePhase implements core.AccessSource. A source keeps only its
// last built stream, which the next PhaseStream call at another budget
// or phase replaces, so there is nothing to release.
func (s *Source) ReleasePhase(int, uint64, uint64) {}

// NumPages implements core.AccessSource.
func (s *Source) NumPages() int { return s.pages }

// NumCores implements core.AccessSource.
func (s *Source) NumCores() int { return s.sockets * s.coresPerSocket }

// SocketOf implements core.AccessSource.
func (s *Source) SocketOf(core int) int { return core / s.coresPerSocket }

// Spec implements core.AccessSource.
func (s *Source) Spec() workload.Spec { return s.spec }
