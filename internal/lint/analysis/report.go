package analysis

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
)

// ReportSchema versions the machine-readable diagnostics format. The
// encoding is byte-stable for a given set of findings, so CI's report
// can be diffed or content-addressed across commits; bump the schema
// when the shape changes.
const ReportSchema = "starnumavet-diagnostics-v1"

// JSONDiagnostic is one finding in the machine-readable report. File is
// module-relative with forward slashes, so reports are stable across
// checkouts and operating systems.
type JSONDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// Report is the top-level machine-readable diagnostics document that
// -json prints.
type Report struct {
	Schema      string           `json:"schema"`
	Diagnostics []JSONDiagnostic `json:"diagnostics"`
}

// Sort orders the diagnostics deterministically by (file, line, col,
// analyzer, message).
func (r *Report) Sort() {
	sort.Slice(r.Diagnostics, func(i, j int) bool {
		a, b := r.Diagnostics[i], r.Diagnostics[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// Encode renders the report as byte-stable, newline-terminated JSON:
// identical findings always produce identical bytes.
func (r *Report) Encode() []byte {
	r.Sort()
	if r.Diagnostics == nil {
		r.Diagnostics = []JSONDiagnostic{}
	}
	data, err := json.MarshalIndent(r, "", "\t")
	if err != nil {
		panic(err) // plain structs cannot fail to marshal
	}
	return append(data, '\n')
}

// modRelative rewrites filename relative to its module root (the
// nearest ancestor directory holding go.mod), with forward slashes.
// Files outside any module keep their original path.
func modRelative(filename string) string {
	dir := filepath.Dir(filename)
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			if rel, err := filepath.Rel(dir, filename); err == nil {
				return filepath.ToSlash(rel)
			}
			return filepath.ToSlash(filename)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return filepath.ToSlash(filename)
		}
		dir = parent
	}
}
