package analysis

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"reflect"
	"testing"
)

func sampleReport() *Report {
	return &Report{Schema: ReportSchema, Diagnostics: []JSONDiagnostic{
		{File: "internal/link/link.go", Line: 9, Col: 3, Analyzer: "floatdet", Message: "float == comparison"},
		{File: "internal/core/system.go", Line: 41, Col: 7, Analyzer: "hotalloc", Message: "hot path (sendPage): append allocates"},
		{File: "internal/core/system.go", Line: 12, Col: 2, Analyzer: "detclock", Message: "time.Now reads the wall clock"},
	}}
}

// TestReportRoundTrip: decode(encode(diags)) == diags, with the
// canonical sort applied — a reader of CI's uploaded report gets back
// exactly the findings the driver saw.
func TestReportRoundTrip(t *testing.T) {
	r := sampleReport()
	got := new(Report)
	if err := json.Unmarshal(r.Encode(), got); err != nil {
		t.Fatal(err)
	}
	want := sampleReport()
	want.Sort()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestReportEncodeStable: the same findings encode to identical bytes
// regardless of input order, and an empty report keeps an explicit
// empty diagnostics array (never JSON null).
func TestReportEncodeStable(t *testing.T) {
	a := sampleReport()
	b := sampleReport()
	b.Diagnostics[0], b.Diagnostics[2] = b.Diagnostics[2], b.Diagnostics[0]
	if !bytes.Equal(a.Encode(), b.Encode()) {
		t.Error("encoding depends on input order")
	}

	empty := (&Report{Schema: ReportSchema}).Encode()
	if !bytes.Contains(empty, []byte(`"diagnostics": []`)) {
		t.Errorf("empty report lacks explicit empty array:\n%s", empty)
	}
	if empty[len(empty)-1] != '\n' {
		t.Error("encoding is not newline-terminated")
	}
}

// TestModRelative: paths inside this module become module-relative
// with forward slashes; paths outside any module pass through.
func TestModRelative(t *testing.T) {
	abs, err := filepath.Abs(filepath.Join("..", "..", "..", "internal", "sim", "engine.go"))
	if err != nil {
		t.Fatal(err)
	}
	if got := modRelative(abs); got != "internal/sim/engine.go" {
		t.Errorf("modRelative(%s) = %q", abs, got)
	}
	outside := filepath.Join(string(filepath.Separator), "nonexistent-root", "f.go")
	if got := modRelative(outside); got != filepath.ToSlash(outside) {
		t.Errorf("modRelative(outside module) = %q", got)
	}
}
