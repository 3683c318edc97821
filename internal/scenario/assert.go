package scenario

import (
	"fmt"

	"starnuma/internal/core"
	"starnuma/internal/fault"
	"starnuma/internal/metrics"
	"starnuma/internal/stats"
)

// RunSet carries the simulation results Evaluate reads, keyed by
// workload name. Ref and Base are consulted only when the compiled
// scenario declares the matching reference (NeedsRef / NeedsBase).
type RunSet struct {
	// Results is the scenario run proper (Sys/Cfg/Specs).
	Results map[string]*core.Result
	// Ref is the no-events reference (Sys/RefCfg/Specs).
	Ref map[string]*core.Result
	// Base is the pool-less perfect baseline (BaseSys/BaseCfg/Specs).
	Base map[string]*core.Result
}

// Evaluate checks every assertion against the run results and returns
// the verdict. Workload outcomes and checks appear in document order
// (placement order; assertion order, expanding unrestricted assertions
// across placements), so the verdict is byte-identical regardless of
// how the runs were scheduled. An error means a result the scenario
// requires is missing — a harness bug, not an assertion failure.
func (c *Compiled) Evaluate(rs RunSet) (*Verdict, error) {
	s := c.Scenario
	v := &Verdict{
		Schema:      VerdictSchema,
		Scenario:    s.Name,
		Description: s.Description,
		Hash:        c.Hash,
		Pass:        true,
	}
	for _, spec := range c.Specs {
		res := rs.Results[spec.Name]
		if res == nil {
			return nil, fmt.Errorf("scenario: evaluate: missing result for workload %q", spec.Name)
		}
		wo := WorkloadOutcome{
			Workload:      spec.Name,
			IPC:           res.IPC,
			AMATNs:        amatNs(res),
			MPKI:          res.MPKI,
			PoolPages:     res.PoolPages,
			DrainedPages:  res.FaultDrainedPages,
			DegradedSends: res.FaultDegradedSends,
			FlapRetries:   res.FaultFlapRetries,
		}
		if c.NeedsRef {
			if ref := rs.Ref[spec.Name]; ref != nil && ref.IPC > 0 {
				wo.SpeedupVsNoEvents = res.IPC / ref.IPC
			}
		}
		if c.NeedsBase {
			if base := rs.Base[spec.Name]; base != nil && base.IPC > 0 {
				wo.SpeedupVsBaseline = res.IPC / base.IPC
			}
		}
		v.Workloads = append(v.Workloads, wo)
	}
	for i := range s.Assertions {
		a := &s.Assertions[i]
		names := []string{a.Workload}
		if a.Workload == "" {
			names = names[:0]
			for _, spec := range c.Specs {
				names = append(names, spec.Name)
			}
		}
		for _, name := range names {
			chk := c.evalOne(i, a, name, rs)
			if !chk.Pass {
				v.Pass = false
			}
			v.Checks = append(v.Checks, chk)
		}
	}
	return v, nil
}

// evalOne evaluates one assertion for one workload.
func (c *Compiled) evalOne(i int, a *Assertion, name string, rs RunSet) Check {
	chk := Check{
		Index:    i,
		Line:     c.Scenario.LineOf(i),
		Kind:     a.Kind,
		Workload: name,
		Op:       a.Op,
		Want:     a.Value,
	}
	res := rs.Results[name]
	var subject string
	switch a.Kind {
	case KindIPC:
		subject = "ipc"
		chk.Got = res.IPC
	case KindMPKI:
		subject = "mpki"
		chk.Got = res.MPKI
	case KindAMATNs:
		subject = "amat_ns"
		chk.Got = amatNs(res)
	case KindSpeedup:
		ref, label := rs.Ref[name], "no-events"
		if a.Vs == VsBaseline {
			ref, label = rs.Base[name], "baseline"
		}
		subject = "speedup vs " + label
		if ref == nil || stats.IsZero(ref.IPC) {
			chk.Detail = fmt.Sprintf("%s (%s): reference result unavailable", subject, name)
			return chk
		}
		chk.Got = res.IPC / ref.IPC
	case KindMetric:
		subject = "metric " + a.Metric
		got, found := lookupMetric(res.Metrics, a.Metric)
		if !found {
			chk.Detail = fmt.Sprintf("%s (%s): not present in the instrumentation snapshot", subject, name)
			return chk
		}
		chk.Got = got
	case KindStallFrac:
		subject = "stall_frac " + a.Category
		if res.Profile == nil {
			chk.Detail = fmt.Sprintf("%s (%s): no attribution profile in the result", subject, name)
			return chk
		}
		chk.Got = res.Profile.Fraction(a.Category)
	case KindFaultCounter:
		subject = "fault counter " + a.Counter
		switch a.Counter {
		case "degraded_sends":
			chk.Got = float64(res.FaultDegradedSends)
		case "flap_retries":
			chk.Got = float64(res.FaultFlapRetries)
		case "drained_pages":
			chk.Got = float64(res.FaultDrainedPages)
		}
	case KindPoolPages:
		subject = "pool_pages"
		chk.Got = float64(res.PoolPages)
	case KindDrainComplete:
		// The drain completed iff final pool residency fits the degraded
		// capacity the event script leaves the device with.
		subject = "drain complete: pool residency"
		chk.Op = "<="
		chk.Want = float64(c.drainCapacity(name))
		chk.Got = float64(res.PoolPages)
	}
	chk.Pass = cmpOp(chk.Op, chk.Got, chk.Want)
	verb := "expected"
	if !chk.Pass {
		verb = "FAILED: expected"
	}
	chk.Detail = fmt.Sprintf("%s (%s): %s %s %v, got %v", subject, name, verb, chk.Op, chk.Want, chk.Got)
	return chk
}

// drainCapacity returns the pool page capacity left for the named
// workload under the event script's final-phase pool state.
func (c *Compiled) drainCapacity(name string) int {
	var footprint int
	for _, spec := range c.Specs {
		if spec.Name == name {
			footprint = spec.FootprintPages
			break
		}
	}
	sched := fault.NewSchedule(c.Cfg.Faults)
	st := sched.Pool(c.Cfg.Phases-1, c.Sys.Pool.Channels)
	return c.Sys.Pool.DegradedCapacityPages(footprint, st)
}

// lookupMetric resolves a metric name against the snapshot, trying the
// namespaces in a fixed order: counters, histograms (mean),
// series (sum of point values).
func lookupMetric(s *metrics.Snapshot, name string) (float64, bool) {
	if s == nil {
		return 0, false
	}
	if v, ok := s.Counters[name]; ok {
		return float64(v), true
	}
	if h, ok := s.Histograms[name]; ok {
		return h.Mean(), true
	}
	if pts, ok := s.Series[name]; ok {
		var sum float64
		for _, p := range pts {
			sum += p.V
		}
		return sum, true
	}
	return 0, false
}

func cmpOp(op string, got, want float64) bool {
	switch op {
	case "<":
		return got < want
	case "<=":
		return got <= want
	case ">":
		return got > want
	case ">=":
		return got >= want
	case "==":
		return stats.SameFloat(got, want)
	case "!=":
		return !stats.SameFloat(got, want)
	}
	return false
}

func amatNs(res *core.Result) float64 {
	if res.AMAT == nil {
		return 0
	}
	return res.AMAT.Measured().Nanos()
}
