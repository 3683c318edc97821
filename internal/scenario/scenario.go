// Package scenario is the declarative experiment layer: one JSON file
// composes a topology/pool configuration, workload placements, fault
// events and assertions on the outcome, and compiles into the
// existing core.SimConfig / fault.Plan / workload.Spec machinery. What
// previously took bespoke Go per experiment — "run StarNUMA under a
// mid-run capacity squeeze and check the drain completed with bounded
// slowdown" — becomes a file under scenarios/ that CI replays as a
// regression check.
//
// A scenario has five sections:
//
//   - system: which hardware variant to simulate (the paper baseline,
//     the StarNUMA pool system, or single-socket) plus topology/pool
//     overrides (socket count, pool capacity fraction, link bandwidths,
//     switched pool latency);
//   - sim: the methodology preset (quick or default) plus phase count,
//     migration policy and tracker overrides;
//   - workloads: the placements — which suite workloads run, at what
//     footprint scale, under which seed, and with how much sharing
//     drift (workload.Spec's DriftFrac/DriftPeriod);
//   - events: internal/fault events in the same JSON grammar as a
//     -faults plan file — link degradations and flaps, pool
//     channel/device kills and pool-capacity squeezes — which become
//     the scenario run's fault plan;
//   - assertions: checks on the outcome — IPC/MPKI/AMAT thresholds,
//     speedup bounds against a reference run, metric-namespace
//     thresholds (internal/metrics), fault counters, pool residency and
//     drain completion.
//
// Like internal/fault, the package is part of the determinism contract
// (starnumavet's SimPackages): it performs no file IO and reads no
// clocks — scenario files are read by the cmd layer and handed in as
// bytes — and a compiled scenario is a pure function of those bytes, so
// its runs ride the runner's content-addressed result cache and its
// verdict manifest is byte-identical across reruns and worker counts.
package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"starnuma/internal/fault"
)

// Schema is the scenario document's schema identifier; Parse rejects
// anything else so format drift fails loudly.
const Schema = "starnuma-scenario-v2"

// Scenario is the root document of one declarative experiment.
type Scenario struct {
	Schema      string        `json:"schema"`
	Name        string        `json:"name"`
	Description string        `json:"description,omitempty"`
	System      SystemSpec    `json:"system"`
	Sim         SimSpec       `json:"sim"`
	Workloads   []WorkloadSel `json:"workloads"`
	Events      []fault.Event `json:"events,omitempty"`
	Assertions  []Assertion   `json:"assertions"`

	// lines holds the 1-based source line of each assertion, populated
	// by Parse so failure output can point at the offending file:line.
	// Programmatically-built scenarios have none (LineOf returns 0).
	lines []int
}

// SystemSpec selects and overrides the simulated hardware.
type SystemSpec struct {
	// Base is the hardware variant: "starnuma" (pool system),
	// "baseline" (paper's pool-less Superdome FLEX) or "single-socket".
	Base string `json:"base"`
	// Sockets/SocketsPerChassis override the topology shape (0 keeps
	// the base's values; Sockets must stay a multiple of
	// SocketsPerChassis).
	Sockets           int `json:"sockets,omitempty"`
	SocketsPerChassis int `json:"sockets_per_chassis,omitempty"`
	// PoolCapacityFraction overrides the pool budget (paper default
	// 0.20; Fig. 12 uses 1/17).
	PoolCapacityFraction float64 `json:"pool_capacity_fraction,omitempty"`
	// PoolChannels overrides the MHD DDR channel count.
	PoolChannels int `json:"pool_channels,omitempty"`
	// PoolLatency selects the Fig. 3 budget: "default" (100ns round
	// trip) or "switched" (Fig. 10's +90ns CXL switch).
	PoolLatency string `json:"pool_latency,omitempty"`
	// Link bandwidth overrides in GB/s per direction (0 keeps Table II).
	CXLBandwidthGBps  float64 `json:"cxl_bandwidth_gbps,omitempty"`
	UPIBandwidthGBps  float64 `json:"upi_bandwidth_gbps,omitempty"`
	NUMABandwidthGBps float64 `json:"numa_bandwidth_gbps,omitempty"`
}

// SimSpec selects and overrides the methodology configuration.
type SimSpec struct {
	// Preset is "quick" (test-sized, the default) or "default" (the
	// full evaluation scaling).
	Preset string `json:"preset,omitempty"`
	// Phases overrides the checkpoint count.
	Phases int `json:"phases,omitempty"`
	// Scale is the default workload footprint scale (0 keeps the
	// preset's: 0.125 quick, 0.25 default).
	Scale float64 `json:"scale,omitempty"`
	// Policy is a migration-policy registry name (internal/migrate;
	// "starnuma" when empty — see `starnuma policy list`).
	Policy string `json:"policy,omitempty"`
	// PolicyParams overrides the policy's descriptor-declared parameters
	// by name; keys are validated against the registry schema.
	PolicyParams map[string]float64 `json:"policy_params,omitempty"`
	// Tracker is "t16" (default) or "t0".
	Tracker string `json:"tracker,omitempty"`
}

// WorkloadSel places one suite workload into the scenario.
type WorkloadSel struct {
	// Name is a Table III workload name (see workload.Names).
	Name string `json:"name"`
	// Scale overrides the scenario-level footprint scale for this
	// workload only.
	Scale float64 `json:"scale,omitempty"`
	// Seed overrides the workload's stream seed (0 keeps the suite's).
	Seed uint64 `json:"seed,omitempty"`
	// DriftFrac/DriftPeriod make sharing non-stationary: this fraction
	// of the workload's regions re-draws its sharer set every
	// DriftPeriod phases (workload.Spec's fields of the same names).
	// Drift is part of the placement, so the references drift too.
	DriftFrac   float64 `json:"drift_frac,omitempty"`
	DriftPeriod int     `json:"drift_period,omitempty"`
}

// Assertion kinds.
const (
	// KindIPC compares a workload's mean IPC against value.
	KindIPC = "ipc"
	// KindMPKI compares the measured LLC MPKI against value.
	KindMPKI = "mpki"
	// KindAMATNs compares the measured mean access latency in
	// nanoseconds against value.
	KindAMATNs = "amat_ns"
	// KindSpeedup compares IPC relative to a reference run: the same
	// scenario without its event script (vs "no-events", the default) or
	// the paper's pool-less perfect baseline (vs "baseline").
	KindSpeedup = "speedup"
	// KindMetric compares an internal/metrics value by namespace name
	// (e.g. "migrate/pages_to_pool"); counters and gauges compare their
	// value, histograms their mean, series the sum of their points.
	// Using it enables instrumentation collection for the run.
	KindMetric = "metric"
	// KindFaultCounter compares a Result fault counter:
	// "degraded_sends", "flap_retries" or "drained_pages".
	KindFaultCounter = "fault_counter"
	// KindStallFrac compares one stall-attribution category's fraction
	// of total stall time (internal/attrib; e.g. category "cxl-queue")
	// against value in [0,1]. Using it enables the stall ledger for the
	// run (passive: results stay bit-identical, the flag is part of the
	// cache key).
	KindStallFrac = "stall_frac"
	// KindPoolPages compares the pages resident in the pool at the end
	// of the run against value.
	KindPoolPages = "pool_pages"
	// KindDrainComplete asserts that final pool residency fits within
	// the event script's degraded capacity at the last phase — the
	// graceful-drain completion check (op/value unused).
	KindDrainComplete = "drain_complete"
)

// Speedup assertion references (Assertion.Vs).
const (
	// VsNoEvents compares against the same scenario with the event
	// script removed (the default).
	VsNoEvents = "no-events"
	// VsBaseline compares against the paper's pool-less perfect
	// baseline on the scenario's topology shape.
	VsBaseline = "baseline"
)

// Assertion is one regression check on a scenario's outcome.
type Assertion struct {
	Kind string `json:"kind"`
	// Workload restricts the check to one placement; empty checks every
	// placed workload.
	Workload string `json:"workload,omitempty"`
	// Metric names the internal/metrics key for kind "metric".
	Metric string `json:"metric,omitempty"`
	// Counter names the fault counter for kind "fault_counter".
	Counter string `json:"counter,omitempty"`
	// Category names the stall-attribution category for kind
	// "stall_frac" (one of internal/attrib's category names).
	Category string `json:"category,omitempty"`
	// Vs selects the speedup reference: "no-events" (default) or
	// "baseline".
	Vs string `json:"vs,omitempty"`
	// Op compares actual Op value: one of < <= > >= == !=.
	Op string `json:"op,omitempty"`
	// Value is the comparison threshold.
	Value float64 `json:"value,omitempty"`
}

// Parse decodes and validates a JSON scenario. Unknown fields, malformed
// JSON, trailing garbage and semantically invalid sections are all
// rejected with an error naming the offending field; Parse never panics.
func Parse(data []byte) (*Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	s := &Scenario{}
	if err := dec.Decode(s); err != nil {
		// Decode reads a well-formed document to its end past unknown
		// fields, so one in another schema version fails on its schema,
		// not on the first field whose spelling changed.
		if s.Schema != "" && s.Schema != Schema {
			return nil, fieldErr("schema", "got %q, want %q", s.Schema, Schema)
		}
		return nil, fmt.Errorf("scenario: parse: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("scenario: parse: trailing data after scenario object")
	}
	s.lines = assertionLines(data)
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// LineOf returns the 1-based source line of assertion i, or 0 when the
// scenario was not built by Parse (or i is out of range).
func (s *Scenario) LineOf(i int) int {
	if i < 0 || i >= len(s.lines) {
		return 0
	}
	return s.lines[i]
}

// Hash returns the scenario's content hash: SHA-256 over the canonical
// re-encoding, so formatting and key order in the source file do not
// matter. The simulation-relevant parts of this content also hash into
// the runner's result-cache key through the compiled configurations.
func (s *Scenario) Hash() string {
	b, err := json.Marshal(s)
	if err != nil {
		// Scenario fields are all plain data; Marshal cannot fail.
		return ""
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// assertionLines walks the raw document with a token decoder and
// records the 1-based line each element of the top-level "assertions"
// array starts on. Any irregularity returns nil — line attribution is
// best-effort and never blocks parsing.
func assertionLines(data []byte) []int {
	dec := json.NewDecoder(bytes.NewReader(data))
	if t, err := dec.Token(); err != nil || t != json.Delim('{') {
		return nil
	}
	for dec.More() {
		keyTok, err := dec.Token()
		if err != nil {
			return nil
		}
		key, _ := keyTok.(string)
		if key != "assertions" {
			var skip json.RawMessage
			if dec.Decode(&skip) != nil {
				return nil
			}
			continue
		}
		if t, err := dec.Token(); err != nil || t != json.Delim('[') {
			return nil
		}
		var lines []int
		for dec.More() {
			off := dec.InputOffset()
			var el json.RawMessage
			if dec.Decode(&el) != nil {
				return nil
			}
			lines = append(lines, lineAt(data, off))
		}
		return lines
	}
	return nil
}

// lineAt returns the 1-based line of the first token byte at or after
// offset off (skipping separators and whitespace).
func lineAt(data []byte, off int64) int {
	i := int(off)
	for i < len(data) {
		switch data[i] {
		case ' ', '\t', '\n', '\r', ',':
			i++
		default:
			return 1 + bytes.Count(data[:i], []byte{'\n'})
		}
	}
	return 1 + bytes.Count(data, []byte{'\n'})
}
