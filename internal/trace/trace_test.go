package trace

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"testing/quick"

	"starnuma/internal/workload"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	h := Header{Workload: "BFS", Cores: 64, Pages: 4096, Phase: 3}
	w, err := NewWriter(&buf, h)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Core: 0, Access: workload.Access{Gap: 10, Page: 42, Block: 7, Write: true}},
		{Core: 63, Access: workload.Access{Gap: 1, Page: 4095, Block: 63, Write: false}},
		{Core: 12, Access: workload.Access{Gap: 65535, Page: 0, Block: 0, Write: true}},
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != 3 {
		t.Fatalf("count = %d", w.Count())
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Header() != h {
		t.Fatalf("header = %+v, want %+v", r.Header(), h)
	}
	for i, want := range recs {
		got, err := r.Read()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("record %d = %+v, want %+v", i, got, want)
		}
	}
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestWriterValidation(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter(&buf, Header{Workload: "x", Cores: 0, Pages: 1}); err == nil {
		t.Fatal("accepted zero cores")
	}
	if _, err := NewWriter(&buf, Header{Workload: "x", Cores: 1, Pages: 0}); err == nil {
		t.Fatal("accepted zero pages")
	}
	if _, err := NewWriter(&buf, Header{Workload: strings.Repeat("y", 70000), Cores: 1, Pages: 1}); err == nil {
		t.Fatal("accepted oversized name")
	}
}

func TestReaderRejectsGarbage(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("JUNKJUNKJUNKJUNKJUNK"))); err == nil {
		t.Fatal("accepted bad magic")
	}
	if _, err := NewReader(bytes.NewReader(nil)); err == nil {
		t.Fatal("accepted empty stream")
	}
	// Valid magic but truncated header.
	if _, err := NewReader(bytes.NewReader([]byte("SNTR\x01\x00"))); err == nil {
		t.Fatal("accepted truncated header")
	}
}

func TestReaderRejectsWrongVersion(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{Workload: "x", Cores: 1, Pages: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[4] = 0xFF // corrupt version
	if _, err := NewReader(bytes.NewReader(b)); err == nil {
		t.Fatal("accepted wrong version")
	}
}

func TestTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, Header{Workload: "x", Cores: 1, Pages: 1})
	w.Write(Record{})
	w.Flush()
	b := buf.Bytes()
	r, err := NewReader(bytes.NewReader(b[:len(b)-3]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(); err == nil || err == io.EOF {
		t.Fatalf("truncated record not detected: %v", err)
	}
}

func TestDumpPhaseRoundTrip(t *testing.T) {
	spec, err := workload.ByName("TPCC", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(spec, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := DumpPhase(gen, 2, 0, &buf); err == nil {
		t.Fatal("dumped a phase at a zero budget")
	}
	n, err := DumpPhase(gen, 2, 5000, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no records dumped")
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Header().Workload != "TPCC" || r.Header().Phase != 2 || r.Header().Cores != 64 {
		t.Fatalf("header = %+v", r.Header())
	}
	// Replay must agree with a fresh generator.
	gen2, _ := workload.NewGenerator(spec, 16, 4)
	gen2.ResetPhase(2)
	instr := make([]uint64, 64)
	count := uint64(0)
	for {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		count++
		if rec.Access.Page >= uint32(gen.NumPages()) {
			t.Fatalf("page out of range: %+v", rec)
		}
		instr[rec.Core] += uint64(rec.Access.Gap)
	}
	if count != n {
		t.Fatalf("read %d records, wrote %d", count, n)
	}
	for c, in := range instr {
		if in < 5000 {
			t.Fatalf("core %d only traced %d instructions", c, in)
		}
	}
}

func TestDumpPhaseRejectsNegativePhase(t *testing.T) {
	spec, err := workload.ByName("BFS", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(spec, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := DumpPhase(gen, -1, 5000, &buf); err == nil {
		t.Fatal("dumped a negative phase")
	}
	if buf.Len() != 0 {
		t.Fatalf("rejected dump wrote %d bytes", buf.Len())
	}
}

// Property: any record survives a round trip.
func TestRecordRoundTripProperty(t *testing.T) {
	f := func(core uint16, gap, page uint32, block uint16, write bool) bool {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, Header{Workload: "p", Cores: 65535, Pages: 1})
		if err != nil {
			return false
		}
		in := Record{Core: core, Access: workload.Access{
			Gap: gap, Page: page, Block: block % workload.BlocksPerPage, Write: write}}
		if w.Write(in) != nil || w.Flush() != nil {
			return false
		}
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		out, err := r.Read()
		return err == nil && out == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
