// Command starnumavet mechanically enforces the simulator's
// determinism, units, hot-path, and observability contracts
// (docs/STATIC_ANALYSIS.md catalogues every analyzer).
//
// Usage:
//
//	go run ./cmd/starnumavet ./...        # findings on stderr
//	go run ./cmd/starnumavet -json ./...  # the byte-stable JSON report on stdout
//
// It exits 1 on any finding and 2 on a usage error; -json is its only
// flag. A reasoned //starnumavet:allow directive on or above the flagged
// line is the only way to accept a finding.
//
// Analyzers: detclock (no wall clock / env in simulation packages),
// seedrand (RNGs flow from explicit config seeds), maporder (no
// order-dependent effects under map iteration), cycleunits (no silent
// crossing of sim.Time / sim.Cycles / link.GBps), hotalloc
// (allocation-free //starnuma:hotpath perimeter), metricname (metric
// names fit the namespace grammar and are documented), floatdet (no
// float == / != in simulation packages), allowcheck (allow directives
// are well-formed and still needed).
package main

import (
	"starnuma/internal/lint/analysis"
	"starnuma/internal/lint/suite"
)

func main() {
	analysis.Main(suite.Analyzers()...)
}
