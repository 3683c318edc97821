package fault

import (
	"strings"
	"testing"

	"starnuma/internal/sim"
)

func TestParsePlanValid(t *testing.T) {
	p, err := ParsePlan([]byte(`{
		"name": "mixed",
		"events": [
			{"kind": "flap", "target": "cxl:s3", "from_phase": 1,
			 "period_ns": 2000, "down_ns": 300, "retry_ns": 100},
			{"kind": "degrade", "target": "upi", "from_phase": 0, "to_phase": 2,
			 "latency_x": 2, "bandwidth_div": 2},
			{"kind": "kill", "target": "pool:ch1", "from_phase": 3}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "mixed" || len(p.Events) != 3 {
		t.Fatalf("plan %+v", p)
	}
}

func TestParsePlanRejects(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"malformed", `{"events": [`, "parse plan"},
		{"unknown field", `{"events": [], "bogus": 1}`, "bogus"},
		{"trailing", `{"events": []} garbage`, "trailing"},
		{"unknown kind", `{"events":[{"kind":"melt","target":"cxl"}]}`, "unknown kind"},
		{"negative phase", `{"events":[{"kind":"degrade","target":"cxl","from_phase":-1,"latency_x":2}]}`, "negative from_phase"},
		{"negative time", `{"events":[{"kind":"degrade","target":"cxl","from_ns":-5,"latency_x":2}]}`, "negative time"},
		{"empty time range", `{"events":[{"kind":"degrade","target":"cxl","from_ns":10,"to_ns":5,"latency_x":2}]}`, "empty time range"},
		{"empty phase range", `{"events":[{"kind":"degrade","target":"cxl","from_phase":2,"to_phase":1,"latency_x":2}]}`, "empty phase range"},
		{"no-op degrade", `{"events":[{"kind":"degrade","target":"cxl"}]}`, "no effect"},
		{"degrade on pool", `{"events":[{"kind":"degrade","target":"pool","latency_x":2}]}`, "link target"},
		{"bad flap duty", `{"events":[{"kind":"flap","target":"cxl","period_ns":100,"down_ns":100}]}`, "down_ns"},
		{"flap no period", `{"events":[{"kind":"flap","target":"cxl","down_ns":10}]}`, "period_ns"},
		{"kill on link", `{"events":[{"kind":"kill","target":"cxl"}]}`, "pool target"},
		{"kill bad channel", `{"events":[{"kind":"kill","target":"pool:chx"}]}`, "integer"},
		{"kill healed", `{"events":[{"kind":"kill","target":"pool","to_phase":4}]}`, "permanent"},
		{"overlap same link", `{"events":[
			{"kind":"degrade","target":"cxl","latency_x":2},
			{"kind":"degrade","target":"cxl:s1","latency_x":3}]}`, "overlap"},
		{"overlap wildcard", `{"events":[
			{"kind":"flap","target":"link","period_ns":100,"down_ns":10},
			{"kind":"flap","target":"upi","period_ns":200,"down_ns":20}]}`, "overlap"},
		{"overlap kills", `{"events":[
			{"kind":"kill","target":"pool"},
			{"kind":"kill","target":"pool:ch0","from_phase":7}]}`, "overlap"},
	}
	for _, tc := range cases {
		if _, err := ParsePlan([]byte(tc.in)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestParsePlanAllowsDisjoint(t *testing.T) {
	// Same kind on disjoint phases, disjoint targets, disjoint channels,
	// and different kinds on the same link must all be accepted.
	if _, err := ParsePlan([]byte(`{"events":[
		{"kind":"degrade","target":"cxl","from_phase":0,"to_phase":2,"latency_x":2},
		{"kind":"degrade","target":"cxl","from_phase":2,"latency_x":4},
		{"kind":"degrade","target":"upi","latency_x":2},
		{"kind":"flap","target":"cxl","period_ns":100,"down_ns":10},
		{"kind":"kill","target":"pool:ch0"},
		{"kind":"kill","target":"pool:ch1"}
	]}`)); err != nil {
		t.Fatal(err)
	}
}

func TestNilSafety(t *testing.T) {
	var s *Schedule
	if s.Active(0) != 0 {
		t.Error("nil schedule has active events")
	}
	if s.Link("CXL", "s0", "pool", 0) != nil {
		t.Error("nil schedule returned an injector")
	}
	if ps := s.Pool(0, 2); ps.Dead || len(ps.Down) != 0 {
		t.Errorf("nil schedule pool state %+v", ps)
	}
	var p *Plan
	if err := p.Validate(); err != nil {
		t.Errorf("nil plan invalid: %v", err)
	}
	if NewSchedule(nil) != nil || NewSchedule(&Plan{}) != nil {
		t.Error("empty plan compiled to a non-nil schedule")
	}
	var j *Injector
	lat, psb, d := j.Adjust(0, 100, 1.5)
	if lat != 100 || psb != 1.5 || d != 0 {
		t.Error("nil injector adjusted a send")
	}
}

func TestInjectorDegrade(t *testing.T) {
	s := NewSchedule(DegradePlan(4))
	if s == nil {
		t.Fatal("no schedule")
	}
	if s.Link("CXL", "s0", "pool", 0) != nil {
		t.Error("degrade active before from_phase")
	}
	if s.Link("UPI", "s0", "s1", 1) != nil {
		t.Error("degrade leaked onto UPI")
	}
	inj := s.Link("CXL", "s0", "pool", 1)
	if inj == nil {
		t.Fatal("no injector for CXL at phase 1")
	}
	lat, psb, d := inj.Adjust(0, 50*sim.Nanosecond, 100)
	if lat != 200*sim.Nanosecond || psb != 400 || d != 0 {
		t.Errorf("degrade 4x: lat=%v psb=%v delay=%v", lat, psb, d)
	}
	if st := inj.Stats(); st.DegradedSends != 1 || st.FlapRetries != 0 {
		t.Errorf("stats %+v", st)
	}
}

func TestInjectorFlap(t *testing.T) {
	s := NewSchedule(FlapPlan())
	inj := s.Link("CXL", "pool", "s2", 1)
	if inj == nil {
		t.Fatal("no injector")
	}
	// 100ns into the 300ns down-interval: wait the remaining 200ns plus
	// the 100ns retry cost.
	_, _, d := inj.Adjust(100*sim.Nanosecond, 10, 1)
	if d != 300*sim.Nanosecond {
		t.Errorf("delay in down interval = %v, want 300ns", d)
	}
	// In the up part of the period: no delay.
	if _, _, d := inj.Adjust(1500*sim.Nanosecond, 10, 1); d != 0 {
		t.Errorf("delay while up = %v", d)
	}
	// Next period's down interval hits again.
	if _, _, d := inj.Adjust(2000*sim.Nanosecond, 10, 1); d == 0 {
		t.Error("no delay at next period's down interval")
	}
	if st := inj.Stats(); st.FlapRetries != 2 || st.RetryTime == 0 {
		t.Errorf("stats %+v", st)
	}
}

func TestInjectorTimeWindow(t *testing.T) {
	p, err := ParsePlan([]byte(`{"events":[{"kind":"degrade","target":"cxl",
		"from_ns":100,"to_ns":200,"latency_x":2}]}`))
	if err != nil {
		t.Fatal(err)
	}
	inj := NewSchedule(p).Link("CXL", "s0", "pool", 0)
	check := func(at sim.Time, want sim.Time) {
		t.Helper()
		if lat, _, _ := inj.Adjust(at, 10*sim.Nanosecond, 1); lat != want {
			t.Errorf("at %v: lat=%v, want %v", at, lat, want)
		}
	}
	check(50*sim.Nanosecond, 10*sim.Nanosecond)  // before window
	check(150*sim.Nanosecond, 20*sim.Nanosecond) // inside
	check(250*sim.Nanosecond, 10*sim.Nanosecond) // after
}

func TestSchedulePool(t *testing.T) {
	s := NewSchedule(DeadChannelPlan(1))
	if ps := s.Pool(0, 2); len(ps.Down) != 0 || ps.Dead {
		t.Errorf("phase 0 state %+v", ps)
	}
	ps := s.Pool(1, 2)
	if ps.Dead || len(ps.Down) != 1 || ps.Down[0] != 1 {
		t.Errorf("phase 1 state %+v", ps)
	}
	if ps.FailedChannels(2) != 1 {
		t.Errorf("failed channels %d", ps.FailedChannels(2))
	}
	// Killing a one-channel device's only channel kills the device.
	if ps := NewSchedule(DeadChannelPlan(0)).Pool(1, 1); !ps.Dead {
		t.Error("all channels down but device not dead")
	}
	if ps := NewSchedule(DeadPoolPlan()).Pool(2, 2); !ps.Dead || ps.FailedChannels(2) != 2 {
		t.Errorf("dead pool state %+v", ps)
	}
}

func TestCannedPlansValidate(t *testing.T) {
	for _, p := range []*Plan{FlapPlan(), DegradePlan(4), DeadChannelPlan(0), DeadChannelPlan(12), DeadPoolPlan()} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestCheckChannels(t *testing.T) {
	var nilPlan *Plan
	for _, p := range []*Plan{nilPlan, FlapPlan(), DeadPoolPlan(), DeadChannelPlan(0), DeadChannelPlan(1)} {
		if err := p.CheckChannels(2); err != nil {
			t.Errorf("%v: %v", p, err)
		}
	}
	err := DeadChannelPlan(2).CheckChannels(2)
	if err == nil || !strings.Contains(err.Error(), "event 0") || !strings.Contains(err.Error(), "2 channels") {
		t.Errorf("kill of ch2 on a 2-channel pool: err = %v", err)
	}
}
