// Package trace provides a compact binary format for step-A access
// traces (§IV-A1).
//
// The paper records per-thread instruction and memory traces with a
// Pin-based tracer and replays them in steps B and C. Our generators are
// deterministic, so traces normally need not be materialised — but the
// format lets users persist a stream (`starnuma workload dump`), inspect
// it, or feed externally produced traces through the same pipeline.
//
// Layout: a fixed header followed by fixed-size little-endian records.
//
//	header:  magic "SNTR" | version u16 | cores u16 | pages u32 |
//	         phase u32 | workload name len u16 | name bytes
//	record:  core u16 | gap u32 | page u32 | block u16 | flags u8
//
// flags bit 0 = write.
//
// The format itself takes any field values. A Source, which replays
// files through steps B and C, accepts only records a recorded phase
// stream can hold, and rejects a file at load, naming the record, when
// one breaks the rule: core below the header's core count, page below
// its page count (itself at most workload.MaxFootprintPages), gap in
// [1, workload.MaxGap] and block below workload.BlocksPerPage. A zero
// gap would never advance a core toward its budget, and an over-wide
// block would alias into the next page.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"starnuma/internal/workload"
)

// Magic identifies a trace stream.
const Magic = "SNTR"

// Version is the current format version.
const Version = 1

const recordSize = 2 + 4 + 4 + 2 + 1

// Header describes a trace stream.
type Header struct {
	Workload string
	Cores    int
	Pages    int
	Phase    int
}

// Record is one traced access, tagged with its core.
type Record struct {
	Core   uint16
	Access workload.Access
}

// Writer encodes records to an underlying stream.
type Writer struct {
	w   *bufio.Writer
	n   uint64
	err error
}

// NewWriter writes a header and returns a record writer.
func NewWriter(w io.Writer, h Header) (*Writer, error) {
	if h.Cores <= 0 || h.Cores > 1<<16-1 {
		return nil, fmt.Errorf("trace: core count %d out of range", h.Cores)
	}
	if h.Pages <= 0 {
		return nil, fmt.Errorf("trace: page count %d out of range", h.Pages)
	}
	if len(h.Workload) > 1<<16-1 {
		return nil, errors.New("trace: workload name too long")
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(Magic); err != nil {
		return nil, err
	}
	var buf [14]byte
	binary.LittleEndian.PutUint16(buf[0:], Version)
	binary.LittleEndian.PutUint16(buf[2:], uint16(h.Cores))
	binary.LittleEndian.PutUint32(buf[4:], uint32(h.Pages))
	binary.LittleEndian.PutUint32(buf[8:], uint32(h.Phase))
	binary.LittleEndian.PutUint16(buf[12:], uint16(len(h.Workload)))
	if _, err := bw.Write(buf[:]); err != nil {
		return nil, err
	}
	if _, err := bw.WriteString(h.Workload); err != nil {
		return nil, err
	}
	return &Writer{w: bw}, nil
}

// Write appends one record.
func (w *Writer) Write(r Record) error {
	if w.err != nil {
		return w.err
	}
	var buf [recordSize]byte
	binary.LittleEndian.PutUint16(buf[0:], r.Core)
	binary.LittleEndian.PutUint32(buf[2:], r.Access.Gap)
	binary.LittleEndian.PutUint32(buf[6:], r.Access.Page)
	binary.LittleEndian.PutUint16(buf[10:], r.Access.Block)
	if r.Access.Write {
		buf[12] = 1
	}
	if _, err := w.w.Write(buf[:]); err != nil {
		w.err = err
		return err
	}
	w.n++
	return nil
}

// Count returns how many records were written.
func (w *Writer) Count() uint64 { return w.n }

// Flush drains buffered output.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// Reader decodes a trace stream.
type Reader struct {
	r      *bufio.Reader
	header Header
}

// NewReader validates the header and returns a record reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(magic) != Magic {
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	var buf [14]byte
	if _, err := io.ReadFull(br, buf[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if v := binary.LittleEndian.Uint16(buf[0:]); v != Version {
		return nil, fmt.Errorf("trace: unsupported version %d", v)
	}
	h := Header{
		Cores: int(binary.LittleEndian.Uint16(buf[2:])),
		Pages: int(binary.LittleEndian.Uint32(buf[4:])),
		Phase: int(binary.LittleEndian.Uint32(buf[8:])),
	}
	nameLen := int(binary.LittleEndian.Uint16(buf[12:]))
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("trace: reading name: %w", err)
	}
	h.Workload = string(name)
	return &Reader{r: br, header: h}, nil
}

// Header returns the stream's header.
func (r *Reader) Header() Header { return r.header }

// Read returns the next record, or io.EOF at end of stream.
func (r *Reader) Read() (Record, error) {
	var buf [recordSize]byte
	if _, err := io.ReadFull(r.r, buf[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return Record{}, io.EOF
		}
		return Record{}, fmt.Errorf("trace: truncated record: %w", err)
	}
	rec := Record{
		Core: binary.LittleEndian.Uint16(buf[0:]),
		Access: workload.Access{
			Gap:   binary.LittleEndian.Uint32(buf[2:]),
			Page:  binary.LittleEndian.Uint32(buf[6:]),
			Block: binary.LittleEndian.Uint16(buf[10:]),
			Write: buf[12]&1 != 0,
		},
	}
	return rec, nil
}

// DumpPhase writes one phase of a generator's recorded streams (all
// cores, round-robin, each up to instrBudget instructions) to w. It
// returns the number of records written.
func DumpPhase(gen *workload.Generator, phase int, instrBudget uint64, w io.Writer) (uint64, error) {
	if instrBudget == 0 {
		return 0, errors.New("trace: zero instruction budget")
	}
	if phase < 0 {
		return 0, fmt.Errorf("trace: negative phase %d", phase)
	}
	tw, err := NewWriter(w, Header{
		Workload: gen.Spec().Name,
		Cores:    gen.NumCores(),
		Pages:    gen.NumPages(),
		Phase:    phase,
	})
	if err != nil {
		return 0, err
	}
	s := gen.PhaseStream(phase, instrBudget)
	cur := append([]int32(nil), s.Off[:gen.NumCores()]...)
	for active := true; active; {
		active = false
		for c := range cur {
			if cur[c] == s.Off[c+1] {
				continue
			}
			active = true
			if err := tw.Write(Record{Core: uint16(c), Access: s.At(cur[c])}); err != nil {
				return tw.Count(), err
			}
			cur[c]++
		}
	}
	return tw.Count(), tw.Flush()
}
