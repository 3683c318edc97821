package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"starnuma/internal/cache"
	"starnuma/internal/coherence"
	"starnuma/internal/core"
	"starnuma/internal/fault"
	"starnuma/internal/link"
	"starnuma/internal/memdev"
	"starnuma/internal/runner"
	"starnuma/internal/sim"
	"starnuma/internal/tlb"
	"starnuma/internal/topology"
	"starnuma/internal/tracker"
	"starnuma/internal/workload"
)

// Component replays drive each substrate module's public API with the
// workload's own recorded accesses, outside the pipeline, so ns/op and
// allocs/op are measured per module. Every replay is deterministic: its
// op count and its outcome ratio (hits, block transfers, walks) repeat
// exactly across runs and commits, which gives the timings a fixed base.

// replayRepeats is how often each replay runs; the timing is the
// median, and the counts must agree across repeats. Modules are built
// once per input and Reset between repeats, as the timing model's pooled
// window scratch is, so the check also covers Reset restoring fresh
// state.
const replayRepeats = 3

// traffic is one stream's replay input: the first batch.replayCap
// accesses of the last step-B phase in step B's round-robin order, the
// placement at that phase's checkpoint, and the job whose system and
// methodology the replay models. Times assume one instruction per cycle:
// the replays need a plausible arrival order, not the timing model's.
type traffic struct {
	job   runner.Job
	topo  *topology.Topology
	home  []topology.NodeID // page -> home node at the checkpoint
	core  []int32
	page  []uint32
	block []uint16
	write []bool
	at    []sim.Time   // issue time on the core's own clock
	gaps  [][]sim.Time // per core: the time between its accesses
}

// collect reads a job's recorded stream for the replay phase.
func collect(j runner.Job, plan *core.Plan, limit int) (*traffic, error) {
	topo := topology.New(j.Sys.Topology)
	g, err := workload.AcquireGenerator(j.Spec, topo.Sockets(), j.Sys.CoresPerSocket)
	if err != nil {
		return nil, err
	}
	defer workload.ReleaseGenerator(g)
	phase := j.Cfg.Phases - 1
	g.SetPhaseBudget(j.Cfg.PhaseInstr)
	g.ResetPhase(phase)
	off, _, _, ok := g.ReplayArrays(j.Cfg.PhaseInstr)
	if !ok {
		return nil, fmt.Errorf("%s: phase %d is not recorded", j.Label, phase)
	}
	cores := g.NumCores()
	tf := &traffic{job: j, topo: topo, home: replayHomes(plan), gaps: make([][]sim.Time, cores)}
	clock := make([]sim.Time, cores)
	left := make([]int32, cores)
	for c := range left {
		left[c] = off[c+1] - off[c]
	}
	cycle := sim.Time(j.Sys.CyclePS())
	for active := true; active && len(tf.page) < limit; {
		active = false
		for c := 0; c < cores && len(tf.page) < limit; c++ {
			if left[c] == 0 {
				continue
			}
			left[c]--
			active = true
			a := g.Next(c)
			d := sim.Time(a.Gap) * cycle
			clock[c] += d
			tf.gaps[c] = append(tf.gaps[c], d)
			tf.core = append(tf.core, int32(c))
			tf.page = append(tf.page, a.Page)
			tf.block = append(tf.block, a.Block)
			tf.write = append(tf.write, a.Write)
			tf.at = append(tf.at, clock[c])
		}
	}
	return tf, nil
}

// replayHomes returns the placement the replay phase starts from: the
// last checkpoint's, with pages first touched during that phase placed
// where step B's first touch put them.
func replayHomes(p *core.Plan) []topology.NodeID {
	home := append([]topology.NodeID(nil), p.Checkpoint(p.NumWindows()-1).PageHome...)
	for pg, h := range home {
		if h == core.Unassigned {
			home[pg] = p.Trace().FinalHome[pg]
		}
	}
	return home
}

// socket returns the requesting socket of access i.
func (tf *traffic) socket(i int) topology.NodeID {
	return topology.NodeID(int(tf.core[i]) / tf.job.Sys.CoresPerSocket)
}

// homeOf returns access i's home node; a page step B never placed is
// first-touched by the requester.
func (tf *traffic) homeOf(i int) topology.NodeID {
	if h := tf.home[tf.page[i]]; h != core.Unassigned {
		return h
	}
	return tf.socket(i)
}

// blockAddr returns access i's global block number.
func (tf *traffic) blockAddr(i int) uint64 {
	return uint64(tf.page[i])*workload.BlocksPerPage + uint64(tf.block[i])
}

// counts is one replay's deterministic output: operations issued and
// the outcome the module's ratio is built from.
type counts struct {
	ops, hits uint64
}

// replayer drives one module instance: reset restores it to its
// fresh-built state (untimed) and run replays the traffic (timed).
type replayer struct {
	reset func()
	run   func() counts
}

// component is one module's replay: build makes the module state for a
// traffic stream. A perStream module ignores placement, tracker shape
// and fault plan, so it replays each stream once.
type component struct {
	prefix    string // <module>.<op>
	perStream bool
	build     func(tf *traffic) replayer
}

var components = []component{
	{"sim.event", true, replayEvents},
	{"link.send", false, replayLinks},
	{"cache.access", true, replayLLC},
	{"coherence.access", false, replayDirectory},
	{"tlb.access", true, replayTLB},
	{"memdev.access", false, replayMemdev},
	{"tracker.record", false, replayTracker},
}

// replayEvents runs every core as a chain of events on one engine
// (Engine.At + Run): each access's event schedules the core's next one
// after the recorded gap, as the timing model's cores do.
func replayEvents(tf *traffic) replayer {
	e := sim.NewEngine()
	next := make([]int, len(tf.gaps))
	fires := make([]sim.Event, len(tf.gaps))
	for c := range tf.gaps {
		gaps := tf.gaps[c]
		fires[c] = func(now sim.Time) {
			if next[c]++; next[c] < len(gaps) {
				e.At(now+gaps[next[c]], fires[c])
			}
		}
	}
	return replayer{
		reset: func() {
			e.Reset()
			for c, gaps := range tf.gaps {
				next[c] = 0
				if len(gaps) > 0 {
					e.At(gaps[0], fires[c])
				}
			}
		},
		run: func() counts {
			e.Run()
			return counts{ops: e.Fired()}
		},
	}
}

// replayLinks sends each remote access's request along its route and
// the data response back, on one link per topology channel with the
// job's fault plan installed for the replay phase (Link.Send).
func replayLinks(tf *traffic) replayer {
	sys := tf.job.Sys
	sched := fault.NewSchedule(tf.job.Cfg.Faults)
	phase := tf.job.Cfg.Phases - 1
	var links []*link.Link
	for _, ch := range tf.topo.Channels() {
		bw := sys.UPIBandwidth
		switch ch.Kind {
		case topology.KindNUMALink:
			bw = sys.NUMABandwidth
		case topology.KindCXL:
			bw = sys.Pool.LinkBW
		}
		links = append(links, link.New(ch.Kind.String(), bw, ch.Latency))
	}
	// Routes are resolved before timing so the loop measures sends only.
	nodes := tf.topo.Nodes()
	routes := make([][]int, nodes*nodes)
	for from := 0; from < nodes; from++ {
		for to := 0; to < nodes; to++ {
			if from != to {
				routes[from*nodes+to] = tf.topo.Route(topology.NodeID(from), topology.NodeID(to))
			}
		}
	}
	reset := func() {
		// A fresh injector per repeat, as each timing window builds its own.
		for i, ch := range tf.topo.Channels() {
			links[i].Reset()
			links[i].SetFault(sched.Link(ch.Kind.String(), ch.From, ch.To, phase))
		}
	}
	return replayer{reset, func() counts {
		var n counts
		for i := range tf.page {
			s, h := tf.socket(i), tf.homeOf(i)
			if s == h {
				continue
			}
			t := tf.at[i]
			for _, ch := range routes[int(s)*nodes+int(h)] {
				t, _ = links[ch].Send(t, sys.MessageBytes)
				n.ops++
			}
			for _, ch := range routes[int(h)*nodes+int(s)] {
				t, _ = links[ch].Send(t, sys.DataBytes)
				n.ops++
			}
		}
		return n
	}}
}

// replayLLC runs each access against its socket's LLC: a hit promotes
// the block, a miss inserts it (LLC.Touch / LLC.Insert).
func replayLLC(tf *traffic) replayer {
	llcs := make([]*cache.LLC, tf.topo.Sockets())
	for s := range llcs {
		llcs[s] = cache.New(tf.job.Sys.LLCBytes, tf.job.Sys.LLCWays)
	}
	reset := func() {
		for _, c := range llcs {
			c.Reset()
		}
	}
	return replayer{reset, func() counts {
		var n counts
		for i := range tf.page {
			c, b := llcs[tf.socket(i)], tf.blockAddr(i)
			if c.Touch(b) {
				n.hits++
			} else {
				c.Insert(b, tf.write[i])
			}
			n.ops++
		}
		return n
	}}
}

// replayDirectory runs each access through the coherence directory with
// its home taken from the checkpoint (Directory.Access); the outcome is
// a block transfer from another socket's cache, 3- or 4-hop.
func replayDirectory(tf *traffic) replayer {
	d := coherence.NewDirectorySized(tf.topo.Sockets(), tf.job.Spec.FootprintPages*workload.BlocksPerPage)
	pool, hasPool := tf.topo.PoolNode(), tf.topo.HasPool()
	return replayer{d.Reset, func() counts {
		var n counts
		for i := range tf.page {
			d.Access(tf.socket(i), tf.blockAddr(i), tf.write[i], hasPool && tf.homeOf(i) == pool)
			n.ops++
		}
		st := d.Stats()
		n.hits = st.BT3Hop + st.BT4Hop
		return n
	}}
}

// replayTLB translates each access on its core's TLB (System.Access);
// the outcome is a page walk.
func replayTLB(tf *traffic) replayer {
	t := tlb.NewSystem(len(tf.gaps), tf.job.Spec.FootprintPages, tlb.DefaultConfig())
	return replayer{t.Reset, func() counts {
		var n counts
		for i := range tf.page {
			if walk, _ := t.Access(int(tf.core[i]), tf.page[i]); walk {
				n.hits++
			}
			n.ops++
		}
		return n
	}}
}

// replayMemdev serves each access at its home node's DRAM controller
// (Controller.Access), the pool's included.
func replayMemdev(tf *traffic) replayer {
	sys := tf.job.Sys
	ctrls := make([]*memdev.Controller, tf.topo.Nodes())
	for s := 0; s < tf.topo.Sockets(); s++ {
		ctrls[s] = memdev.NewController(fmt.Sprintf("s%d", s), sys.SocketMem)
	}
	if tf.topo.HasPool() {
		pm := sys.PoolMem
		pm.Channels = sys.Pool.Channels
		ctrls[tf.topo.PoolNode()] = memdev.NewController("pool", pm)
	}
	reset := func() {
		for _, c := range ctrls {
			if c != nil {
				c.Reset()
			}
		}
	}
	return replayer{reset, func() counts {
		var n counts
		for i := range tf.page {
			ctrls[tf.homeOf(i)].Access(tf.at[i], tf.blockAddr(i)*64, sys.DataBytes)
			n.ops++
		}
		return n
	}}
}

// replayTracker records each access in a tracker table of the job's
// design and region size (Table.Record).
func replayTracker(tf *traffic) replayer {
	t := tracker.NewTable(tf.job.Cfg.Tracker, tf.job.Spec.FootprintPages, tf.job.Cfg.RegionPages)
	return replayer{t.Reset, func() counts {
		var n counts
		for i := range tf.page {
			t.Record(int(tf.socket(i)), tf.page[i])
			n.ops++
		}
		return n
	}}
}

// componentResult is one module's replay measurements.
type componentResult struct {
	Ops     uint64  `json:"ops"`
	Hits    uint64  `json:"hits"`
	NsPerOp float64 `json:"ns_per_op"`
	Allocs  float64 `json:"allocs_per_op"`
}

// replayTraffic picks the replay inputs of a batch. Each recorded
// stream is replayed once per distinct tracker shape and fault plan that
// runs on it, modelled on the last such job in batch order (pooled
// systems come after the baseline). plans must hold the traced pass's
// step-B output per job.
func replayTraffic(b *batch, plans []*core.Plan) (map[string][]*traffic, error) {
	last := map[string]int{}
	var order []string
	for i, j := range b.jobs {
		k := fmt.Sprintf("%s|%s|%d|%s", streamKey(j), j.Cfg.Tracker, j.Cfg.RegionPages, planName(j.Cfg.Faults))
		if _, ok := last[k]; !ok {
			order = append(order, k)
		}
		last[k] = i
	}
	byStream := map[string]*traffic{}
	out := map[string][]*traffic{}
	for _, k := range order {
		j, plan := b.jobs[last[k]], plans[last[k]]
		if plan == nil {
			return nil, fmt.Errorf("%s: no step-B plan to replay against", j.Label)
		}
		sk := streamKey(j)
		base, seen := byStream[sk]
		if !seen {
			var err error
			if base, err = collect(j, plan, b.replayCap); err != nil {
				return nil, err
			}
			byStream[sk] = base
		}
		tf := *base
		tf.job = j
		tf.home = replayHomes(plan)
		for _, c := range components {
			if !c.perStream || !seen {
				out[c.prefix] = append(out[c.prefix], &tf)
			}
		}
	}
	return out, nil
}

func planName(p *fault.Plan) string {
	if p == nil {
		return "none"
	}
	return p.Name
}

// replayComponents runs every module's replay replayRepeats times and
// returns the median timing per module, plus a description of every
// repeat whose counts differ from the first's (a correctness failure).
func replayComponents(b *batch, plans []*core.Plan) (map[string]componentResult, []string, error) {
	inputs, err := replayTraffic(b, plans)
	if err != nil {
		return nil, nil, err
	}
	var mismatches []string
	out := map[string]componentResult{}
	for _, c := range components {
		var rs []replayer
		for _, tf := range inputs[c.prefix] {
			rs = append(rs, c.build(tf))
		}
		var first counts
		var nsPerOp []float64
		var allocs float64
		// Timings are the median repeat; allocations are the last
		// repeat's, the steady state of a reused module.
		for r := 0; r < replayRepeats; r++ {
			var tot counts
			var elapsed time.Duration
			var mallocs uint64
			for _, rp := range rs {
				rp.reset()
				var ms0, ms1 runtime.MemStats
				runtime.ReadMemStats(&ms0)
				t0 := time.Now()
				n := rp.run()
				elapsed += time.Since(t0)
				runtime.ReadMemStats(&ms1)
				mallocs += ms1.Mallocs - ms0.Mallocs
				tot.ops += n.ops
				tot.hits += n.hits
			}
			if tot.ops == 0 {
				return nil, nil, fmt.Errorf("%s: replay issued no operations", c.prefix)
			}
			allocs = float64(mallocs) / float64(tot.ops)
			if r == 0 {
				first = tot
			} else if tot != first {
				mismatches = append(mismatches, fmt.Sprintf("%s repeat %d: %+v, first %+v", c.prefix, r, tot, first))
			}
			nsPerOp = append(nsPerOp, float64(elapsed.Nanoseconds())/float64(tot.ops))
		}
		out[c.prefix] = componentResult{Ops: first.ops, Hits: first.hits, NsPerOp: median(nsPerOp), Allocs: allocs}
	}
	return out, mismatches, nil
}

// median returns the median of xs (0 for none); xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n := len(xs); n%2 == 1 {
		return xs[n/2]
	} else {
		return (xs[n/2-1] + xs[n/2]) / 2
	}
}
