package core

import (
	"fmt"
	"strconv"
	"sync"

	"starnuma/internal/attrib"
	"starnuma/internal/cache"
	"starnuma/internal/coherence"
	"starnuma/internal/evtrace"
	"starnuma/internal/fault"
	"starnuma/internal/link"
	"starnuma/internal/memdev"
	"starnuma/internal/metrics"
	"starnuma/internal/migrate"
	"starnuma/internal/sim"
	"starnuma/internal/stats"
	"starnuma/internal/tlb"
	"starnuma/internal/topology"
	"starnuma/internal/tracker"
	"starnuma/internal/workload"
)

// annexFlushBatch mirrors the tracker's flush rate: one metadata write
// per this many LLC misses per socket (§III-D1's TLB annex).
const annexFlushBatch = 32

// pageLineMessages is how many line-sized packets carry one migrated
// 4KB page. Pages are packetised rather than sent as one bulk message so
// demand traffic interleaves with migration traffic — a monolithic 4KB
// transfer would monopolise a 3 GB/s link for ~1.4µs and head-of-line
// block every request behind it.
const pageLineMessages = workload.PageBytes / cache.BlockBytes

// coreState is the MLP-limited timing model of one core (DESIGN.md §3):
// compute retires at the workload's zero-load IPC, at most MLP misses
// overlap, and the next miss may not issue before its compute position.
type coreState struct {
	id, socket  int
	next, end   int32    // cursor into the phase stream, and its limit
	instr       uint64   // instructions retired so far (by gap accounting)
	compute     sim.Time // compute-completion time of work up to the pending miss
	pendingA    workload.Access
	hasPending  bool
	outstanding int
	done        bool
	wakeAt      sim.Time // earliest scheduled self-wake (dedup)
	hasWake     bool

	warmupDone  bool
	warmupTime  sim.Time
	warmupInstr uint64
	finish      sim.Time

	// wake is the core's reusable self-wake event, bound once at scratch
	// construction so the issue loop never allocates a closure.
	wake sim.Event
}

// windowStats is what one step-C timing window produces.
type windowStats struct {
	amat        *stats.AMAT
	ipcs        []float64 // per-core post-warmup IPC
	instr       uint64    // post-warmup instructions
	misses      uint64    // post-warmup misses
	dir         coherence.Stats
	migrStalled uint64 // accesses stalled behind in-flight migrations
	migrModeled int
	simTime     sim.Time
	tlb         tlb.Stats
	// replication study counters (§V-F)
	replicaReads       uint64
	replicaWriteStalls uint64
	// software-tracking study: minor page faults taken in the window
	pageFaults uint64
	// fault-injection counters, summed over the window's link injectors:
	// sends served degraded, sends that hit a flap down-interval, and
	// the total retrain+retry wait they paid.
	faultDegraded uint64
	faultRetries  uint64
	faultRetryPS  sim.Time
	// met is the window's instrumentation snapshot; nil unless
	// SimConfig.CollectMetrics.
	met *metrics.Snapshot
	// trc is the window's event-trace buffer, with timestamps on the
	// window's local clock (t=0 at window start); nil unless
	// SimConfig.Trace. Result.MergeWindow shifts it onto the run's
	// continuous timeline.
	trc *evtrace.Buffer
	// prof is the window's stall-attribution snapshot; nil unless
	// SimConfig.Attrib.
	prof *attrib.WindowProfile
}

// timingSystem wires the substrate models together for one window.
//
// Its lifecycle is split in two: the *scratch* — topology, engine,
// links, controllers, caches, directory, TLBs, cores — depends only on
// (SystemConfig, footprint) and is pooled across windows, while
// prepare() applies the per-window state (checkpoint page map, fault
// schedule, sampler, tracing) to either a fresh or a recycled scratch.
// Building the scratch dominated window setup time; recycling it turns
// per-window cost into a handful of O(1) resets.
type timingSystem struct {
	sys  SystemConfig
	cfg  SimConfig
	topo *topology.Topology
	eng  *sim.Engine
	key  scratchKey

	// stream is the window's phase stream; cores read it through their
	// cursors.
	stream *workload.PhaseStream

	links   []*link.Link
	ctrls   []*memdev.Controller // indexed by node
	llcs    []*cache.LLC         // indexed by socket
	dir     *coherence.Directory
	tlbs    *tlb.System      // nil when TLB modelling is disabled
	sampler *tracker.Sampler // nil unless the software-tracking study runs

	// fault injection: the compiled schedule (nil = fault-free), the
	// per-link injectors installed for this window's phase, and the
	// pool device's health.
	sched     *fault.Schedule
	injectors []*fault.Injector
	poolFault fault.PoolState

	pageHome   []topology.NodeID
	inFlight   map[uint32]pageFlight // pages whose migration is in flight
	replicated []bool                // §V-F study; nil when disabled

	// Stall attribution (internal/attrib): led is the active ledger, nil
	// (disabled) unless cfg.Attrib — every charge site is gated on it, so
	// attribution-off windows take no attribution branches. ledger is the
	// pooled allocation behind led; linkCXL marks, index-aligned with
	// links, which channels are CXL (queue/prop category split).
	led     *attrib.Ledger
	ledger  *attrib.Ledger
	linkCXL []bool

	cores   []*coreState
	running int

	ipc0    float64
	cyclePS float64
	mlp     int

	chargeTracker bool
	annexCount    []uint64

	// txnFree recycles transaction state machines within the window, so
	// the per-access coherence paths allocate nothing at steady state.
	txnFree []*txn

	// met is the window's instrumentation registry; nil (disabled)
	// unless cfg.CollectMetrics. All writes are nil-safe no-ops when
	// disabled, and collection never alters timing.
	met *metrics.Registry

	// Event tracing (nil/zero when cfg.Trace is off): precomputed
	// per-node lane names, the sampled coherence-transaction tracer,
	// and per-window caps on migration and TLB-walk spans.
	lanes   []string
	txnTrc  *coherence.TxnTracer
	trcMigN int
	trcTLBN int

	w windowStats
}

// scratchKey identifies a reusable scratch shape. Everything the shape
// depends on is in here; two windows with equal keys can swap scratches
// freely because prepare() re-applies all remaining state.
type scratchKey struct {
	sys      SystemConfig
	pages    int
	modelTLB bool
}

// scratchPools holds one sync.Pool of *timingSystem per scratch shape.
var scratchPools sync.Map // scratchKey -> *sync.Pool

// policyChargesTracker reports whether the configured policy reads the
// hardware access tracker, and therefore whether the timing windows must
// charge annex flush traffic for its metadata. The registry descriptor
// declares it; static placement (oracle) never consults the tracker.
func policyChargesTracker(cfg SimConfig) bool {
	d, ok := migrate.LookupPolicy(cfg.Policy.CanonicalName())
	return ok && d.UsesTracker
}

// acquireTimingSystem returns a timing system ready to run one
// checkpoint window: a pooled scratch when one with the right shape
// exists, a freshly built one otherwise.
//
//starnuma:coldpath once-per-window setup
func acquireTimingSystem(sys SystemConfig, cfg SimConfig, gen AccessSource,
	chk Checkpoint, replicated []bool) *timingSystem {
	key := scratchKey{sys: sys, pages: gen.NumPages(), modelTLB: cfg.ModelTLB}
	var ts *timingSystem
	if p, ok := scratchPools.Load(key); ok {
		if v := p.(*sync.Pool).Get(); v != nil {
			ts = v.(*timingSystem)
			ts.resetScratch()
		}
	}
	if ts == nil {
		ts = newScratch(sys, cfg, gen)
		ts.key = key
	}
	ts.prepare(cfg, gen, chk, replicated)
	return ts
}

// releaseTimingSystem drops the window-specific references (so results
// handed to the caller never alias scratch state) and returns the
// scratch to its shape's pool.
//
//starnuma:coldpath once-per-window teardown
func releaseTimingSystem(ts *timingSystem) {
	ts.w = windowStats{}
	ts.stream = nil
	ts.replicated = nil
	ts.sampler = nil
	ts.sched = nil
	ts.txnTrc = nil
	ts.lanes = nil
	ts.met = nil
	ts.led = nil
	ts.injectors = ts.injectors[:0]
	p, _ := scratchPools.LoadOrStore(ts.key, &sync.Pool{})
	p.(*sync.Pool).Put(ts)
}

// newScratch builds the reusable shape: every structure whose size and
// wiring depend only on the system config and the workload footprint.
// All per-window state is left for prepare.
//
//starnuma:coldpath runs once per (system, footprint) shape
func newScratch(sys SystemConfig, cfg SimConfig, gen AccessSource) *timingSystem {
	topo := topology.New(sys.Topology)
	ts := &timingSystem{
		sys:        sys,
		topo:       topo,
		eng:        sim.NewEngine(),
		dir:        coherence.NewDirectorySized(topo.Sockets(), gen.NumPages()*workload.BlocksPerPage),
		inFlight:   make(map[uint32]pageFlight),
		cyclePS:    sys.CyclePS(),
		annexCount: make([]uint64, topo.Sockets()),
	}
	if cfg.ModelTLB {
		ts.tlbs = tlb.NewSystem(topo.Sockets()*sys.CoresPerSocket, gen.NumPages(), tlb.DefaultConfig())
	}
	// Links: one bandwidth server per directed channel.
	for _, ch := range topo.Channels() {
		var bw link.GBps
		switch ch.Kind {
		case topology.KindUPI, topology.KindUPIASIC:
			bw = sys.UPIBandwidth
		case topology.KindNUMALink:
			bw = sys.NUMABandwidth
		case topology.KindCXL:
			bw = sys.Pool.LinkBW
		}
		ts.links = append(ts.links, link.New(fmt.Sprintf("%s:%s->%s", ch.Kind, ch.From, ch.To), bw, ch.Latency))
		ts.linkCXL = append(ts.linkCXL, ch.Kind == topology.KindCXL)
	}
	// Memory controllers and LLCs per node.
	for s := 0; s < topo.Sockets(); s++ {
		ts.ctrls = append(ts.ctrls, memdev.NewController(fmt.Sprintf("s%d", s), sys.SocketMem))
		ts.llcs = append(ts.llcs, cache.New(sys.LLCBytes, sys.LLCWays))
	}
	if topo.HasPool() {
		pm := sys.PoolMem
		pm.Channels = sys.Pool.Channels
		ts.ctrls = append(ts.ctrls, memdev.NewController("pool", pm))
	}
	n := topo.Sockets() * sys.CoresPerSocket
	for c := 0; c < n; c++ {
		cs := &coreState{id: c}
		cs.wake = func(sim.Time) {
			cs.hasWake = false
			ts.tryIssue(cs)
		}
		ts.cores = append(ts.cores, cs)
	}
	return ts
}

// resetScratch restores a recycled scratch to the fresh-built state.
// Every structure touched here resets in place (generation bumps or
// zeroing), keeping the allocations.
//
//starnuma:coldpath once per window on scratch reuse
func (ts *timingSystem) resetScratch() {
	ts.eng.Reset()
	for _, l := range ts.links {
		l.Reset()
	}
	for _, c := range ts.ctrls {
		c.Reset()
	}
	for _, c := range ts.llcs {
		c.Reset()
	}
	ts.dir.Reset()
	if ts.tlbs != nil {
		ts.tlbs.Reset()
	}
	clear(ts.inFlight)
}

// prepare applies one checkpoint window's configuration to the scratch.
// It runs on both fresh and recycled scratches, so everything a window
// can observe is (re)set here or in resetScratch — a recycled system
// must be indistinguishable from a new one.
//
//starnuma:coldpath once-per-window configuration
func (ts *timingSystem) prepare(cfg SimConfig, gen AccessSource, chk Checkpoint, replicated []bool) {
	ts.cfg = cfg
	ts.stream = gen.PhaseStream(chk.Phase, cfg.TimedInstr)
	ts.mlp = gen.Spec().MLP
	ts.chargeTracker = policyChargesTracker(cfg)
	ts.w = windowStats{}
	ts.met = nil
	ts.lanes = nil
	ts.txnTrc = nil
	ts.trcMigN, ts.trcTLBN = 0, 0
	if cfg.CollectMetrics {
		ts.met = metrics.New()
	}
	ts.eng.SetMetrics(ts.met)
	ts.led = nil
	if cfg.Attrib {
		if ts.ledger == nil {
			ts.ledger = attrib.NewLedger(ts.topo.Sockets())
		} else {
			ts.ledger.Reset()
		}
		ts.led = ts.ledger
	}
	if cfg.Trace {
		ts.w.trc = evtrace.NewBuffer()
		ts.lanes = traceLanes(ts.topo)
		ts.txnTrc = coherence.NewTxnTracer(ts.w.trc, coherenceTraceSample)
	}
	localMissCycles := float64(ts.localUnloaded()) / ts.cyclePS
	ts.ipc0 = gen.Spec().ZeroLoadIPC(localMissCycles)
	ts.sampler = nil
	if cfg.SoftwareTracking.Enable {
		// A window-local sampler with the same seed redraws the exact
		// sample step B used for this phase.
		tbl := tracker.NewTable(cfg.Tracker, gen.NumPages(), cfg.RegionPages)
		ts.sampler = tracker.NewSampler(tbl, cfg.SoftwareTracking.SampleFrac, gen.Spec().Seed)
		ts.sampler.ResetPhase(chk.Phase)
		ts.chargeTracker = false // faults replace annex flush traffic
	}

	// Fault injectors for this window's phase. Installing nil clears any
	// injector or trace left by a previous window.
	ts.sched = fault.NewSchedule(cfg.Faults)
	ts.injectors = ts.injectors[:0]
	for i, ch := range ts.topo.Channels() {
		l := ts.links[i]
		inj := ts.sched.Link(ch.Kind.String(), ch.From, ch.To, chk.Phase)
		l.SetFault(inj)
		if inj != nil {
			ts.injectors = append(ts.injectors, inj)
			if ts.w.trc != nil {
				// Fault-adjusted sends trace onto a "fault" process with
				// one thread per degraded link.
				l.SetTrace(ts.w.trc, "fault/"+l.Name())
				continue
			}
		}
		l.SetTrace(nil, "")
	}
	ts.poolFault = fault.PoolState{}
	if ts.topo.HasPool() {
		ts.poolFault = ts.sched.Pool(chk.Phase, ts.sys.Pool.Channels)
		// A healthy state installs a nil remap, so applying it
		// unconditionally leaves a recycled controller identical to a
		// fresh one.
		ts.ctrls[ts.topo.PoolNode()].ApplyFault(ts.poolFault)
	}

	// Placement state.
	ts.pageHome = append(ts.pageHome[:0], chk.PageHome...)
	ts.replicated = replicated

	// Cores: reset in place, keeping identity and the bound wake event,
	// with their cursors at the start of their phase streams.
	off := ts.stream.Off
	for _, cs := range ts.cores {
		*cs = coreState{id: cs.id, socket: gen.SocketOf(cs.id), wake: cs.wake,
			next: off[cs.id], end: off[cs.id+1]}
	}
	ts.running = len(ts.cores)
	for i := range ts.annexCount {
		ts.annexCount[i] = 0
	}
	ts.w.amat = stats.NewAMAT()
	ts.w.amat.SetUnloadedLatencies(unloadedLatencies(ts.topo, ts.localUnloaded()))
}

// localUnloaded is the zero-contention local access latency of the
// configured memory.
func (ts *timingSystem) localUnloaded() sim.Time {
	return ts.sys.SocketMem.OnChip + ts.sys.SocketMem.DRAMLatency
}

// unloadedLatencies derives per-access-type zero-contention latencies
// from the topology's link constants, so the AMAT decomposition follows
// the system being simulated (Fig. 10's switched pool shifts Pool and
// BT_Pool automatically).
func unloadedLatencies(topo *topology.Topology, local sim.Time) [stats.NumAccessTypes]sim.Time {
	var out [stats.NumAccessTypes]sim.Time
	cfg := topo.Config()
	out[stats.Local] = local
	out[stats.OneHop] = 2*cfg.UPIOneWay + local
	inter := 2 * (2*cfg.UPIOneWay + 2*cfg.ASICOneWay + cfg.NUMAOneWay)
	out[stats.TwoHop] = inter + local
	out[stats.Pool] = 2*cfg.CXLOneWay + local
	// BT_Socket: mean 3-hop network latency over R,H,O combinations plus
	// a home memory/directory access (§V-A).
	if sum, n := topo.ThreeHopPaths(); n > 0 {
		out[stats.BTSocket] = sim.Time(int64(sum)/int64(n)) + local
	} else {
		out[stats.BTSocket] = local
	}
	out[stats.BTPool] = 4*cfg.CXLOneWay + local
	return out
}

// Transaction state machine.
//
// The per-access coherence paths used to be chains of nested closures —
// one fresh heap allocation per hop, per message, per access. A txn is
// the flattened form: a short program of steps (link sends, a memory
// access, completion bookkeeping) executed by one reusable event
// function. A step whose start time is in the future schedules the txn
// and returns; when the event fires, engine-now has reached that time
// and execution proceeds — so each step's guard is naturally
// idempotent. Event times, kinds and scheduling order are identical to
// the closure chains', which the bit-identity determinism tests gate.
//
// Every link send and memory access of step C runs as a txn program:
// demand accesses, replica reads and writes, writebacks, invalidations,
// annex flushes and migration page packets. Link and memory
// attribution is therefore charged in one place, run, and only for
// steps of a recorded demand access (record set) while a ledger is
// active.
const (
	opSend    = iota // charge st.bytes over the route st.from -> st.to
	opMem            // DRAM access at node st.to
	opReplica        // software replica-coherence stall until t.at
	opDone           // completion: AMAT/trace/core bookkeeping
	opLand           // page packet delivered: report to t.mv, no event
)

// hopCoh tags a send step as a coherence leg: an extra hop a block
// transfer adds after the home's memory access. The attribution ledger
// charges tagged hops' propagation to the coherence category; queueing
// on them still lands in the link/CXL queue categories.
const hopCoh uint8 = 1

// doneReplica tags a completion step as a replicated-page access, which
// bypasses the directory and so records no coherence-transaction trace
// event.
const doneReplica uint8 = 1

// txnStep is one instruction of a transaction program.
type txnStep struct {
	op       uint8
	cat      uint8 // hopCoh on coherence legs, doneReplica on replica completions
	bytes    int32
	from, to topology.NodeID
}

// txn is a pooled coherence-transaction state machine.
type txn struct {
	ts     *timingSystem
	fn     sim.Event // bound once: resumes run()
	steps  [6]txnStep
	nsteps uint8
	idx    uint8
	hopIdx int   // progress within the current send or replica step
	route  []int // current send step's route (borrowed from topology)
	at     sim.Time
	mv     *pageMove // the page move a packet belongs to (opLand)

	// Completion context (opDone); unused by fire-and-forget txns.
	addr   uint64
	cs     *coreState
	acc    stats.AccessType
	issued sim.Time
	record bool
	socket topology.NodeID
	home   topology.NodeID
	res    coherence.Result
}

// getTxn returns a blank transaction with at/addr/steps to be filled by
// the caller, which must then call run(now) once.
//
//starnuma:hotpath one to four calls per timed access
func (ts *timingSystem) getTxn() *txn {
	if n := len(ts.txnFree); n > 0 {
		t := ts.txnFree[n-1]
		ts.txnFree = ts.txnFree[:n-1]
		return t
	}
	//starnumavet:allow hotalloc pool refill; amortized to zero once the window's transaction depth is reached
	t := &txn{ts: ts}
	t.fn = func(now sim.Time) { t.run(now) }
	return t
}

// putTxn recycles a completed transaction.
//
//starnuma:hotpath once per completed transaction
func (ts *timingSystem) putTxn(t *txn) {
	t.cs = nil
	t.route = nil
	t.mv = nil
	t.res = coherence.Result{}
	t.nsteps, t.idx, t.hopIdx = 0, 0, 0
	// Clear record so a recycled txn reused fire-and-forget (writebacks,
	// invalidations, annex flushes) never inherits a demand txn's flag —
	// the attribution ledger charges only steps with record set.
	t.record = false
	//starnumavet:allow hotalloc amortized free-list growth; capacity is retained across windows
	ts.txnFree = append(ts.txnFree, t)
}

// sendStep appends a message transfer to the program.
func (t *txn) sendStep(from, to topology.NodeID, bytes int) {
	t.steps[t.nsteps] = txnStep{op: opSend, from: from, to: to, bytes: int32(bytes)}
	t.nsteps++
}

// sendStepCoh appends a message transfer tagged as a coherence leg.
func (t *txn) sendStepCoh(from, to topology.NodeID, bytes int) {
	t.steps[t.nsteps] = txnStep{op: opSend, cat: hopCoh, from: from, to: to, bytes: int32(bytes)}
	t.nsteps++
}

// memStep appends a DRAM access at node to the program.
func (t *txn) memStep(node topology.NodeID) {
	t.steps[t.nsteps] = txnStep{op: opMem, to: node}
	t.nsteps++
}

// replicaStep appends the replica-coherence stall, which ends at t.at.
func (t *txn) replicaStep() {
	t.steps[t.nsteps] = txnStep{op: opReplica}
	t.nsteps++
}

// doneStep appends the completion step; cat is doneReplica for replica
// accesses, 0 otherwise.
func (t *txn) doneStep(cat uint8) {
	t.steps[t.nsteps] = txnStep{op: opDone, cat: cat}
	t.nsteps++
}

// landStep appends a page packet's delivery report.
func (t *txn) landStep() {
	t.steps[t.nsteps] = txnStep{op: opLand}
	t.nsteps++
}

// run executes the program from the current step, scheduling itself
// whenever a step starts in the future, and recycles the txn when the
// program ends.
//
//starnuma:hotpath drives every step of every modeled transaction
func (t *txn) run(_ sim.Time) {
	ts := t.ts
	for t.idx < t.nsteps {
		st := &t.steps[t.idx]
		switch st.op {
		case opSend:
			if t.hopIdx == 0 {
				t.route = ts.topo.Route(st.from, st.to)
			}
			for t.hopIdx < len(t.route) {
				now := ts.eng.Now()
				if t.at > now {
					ts.eng.AtKind(t.at, "send", t.fn)
					return
				}
				li := t.route[t.hopIdx]
				delivered, q := ts.links[li].Send(now, int(st.bytes))
				if ts.led != nil && t.record {
					ts.chargeHop(li, t.socket, now, delivered, q, st.cat == hopCoh)
				}
				t.hopIdx++
				t.at = delivered
			}
			t.hopIdx = 0
			t.idx++
		case opMem:
			now := ts.eng.Now()
			if t.at > now {
				ts.eng.AtKind(t.at, "mem", t.fn)
				return
			}
			done, q := ts.ctrls[st.to].Access(now, t.addr, cache.BlockBytes)
			if ts.led != nil && t.record {
				ts.chargeMem(t.socket, st.to, now, done, q)
			}
			t.at = done
			t.idx++
		case opReplica:
			// The stall is always its own "replica" event, even when the
			// penalty is zero; hopIdx marks it as taken.
			if t.hopIdx == 0 {
				t.hopIdx = 1
				if ts.led != nil && t.record {
					ts.led.Charge(int(t.socket), attrib.Replication, t.at-ts.eng.Now())
				}
				ts.eng.AtKind(t.at, "replica", t.fn)
				return
			}
			t.hopIdx = 0
			t.idx++
		case opDone:
			now := ts.eng.Now()
			if t.at > now {
				ts.eng.AtKind(t.at, "complete", t.fn)
				return
			}
			t.finish(now, st.cat != doneReplica)
			t.idx++
		case opLand:
			ts.landPacket(t.mv, t.at)
			t.idx++
		}
	}
	ts.putTxn(t)
}

// finish is the opDone body: record the miss, charge the core, and let
// it issue more work.
//
//starnuma:hotpath completion of every timed access
func (t *txn) finish(now2 sim.Time, traced bool) {
	ts := t.ts
	cs := t.cs
	if t.record {
		ts.w.amat.Observe(t.acc, now2-t.issued)
		ts.w.misses++
	}
	if traced && ts.txnTrc != nil {
		ts.txnTrc.Record(t.issued, now2-t.issued, ts.lanes[t.socket], t.socket, t.home, t.res)
	}
	// Charge the miss's latency, divided by the core's MLP, as serial
	// stall on the core timeline: the standard additive overlap model
	// (1/IPC = 1/IPC₀ + missRate × L/MLP), which is also what
	// ZeroLoadIPC inverts.
	cs.compute += (now2 - t.issued) / sim.Time(ts.mlp)
	cs.outstanding--
	ts.tryIssue(cs)
}

// pageMove is one modeled page migration in flight. Its line packets
// are txn programs that report their delivery here; the last one lands
// the page.
type pageMove struct {
	page     uint32
	from, to topology.NodeID
	start    sim.Time // when the move began
	left     int      // packets not yet delivered
	last     sim.Time // latest delivery so far
}

// pageFlight is a page whose migration is in flight. Accesses to it
// stall until the page lands.
type pageFlight struct {
	drain   bool // the move is a fault drain
	waiters []stalledAccess
}

// stalledAccess is an access parked behind an in-flight migration.
type stalledAccess struct {
	cs     *coreState
	a      workload.Access
	issued sim.Time
	since  sim.Time // when the stall began
	record bool
	drain  bool // stalled behind a fault drain (attribution category)
}

// sendPage streams one 4KB page as line-sized packets from mv.from to
// mv.to; the page lands when the final packet does. Packets share the
// route's links with demand traffic in FIFO order, so migrations
// consume bandwidth without head-of-line blocking whole-page transfers.
//
// The first hop — where all packets arrive together — is charged as one
// SendBatch, which is closed-form identical to 64 sequential Sends; on
// fault-injected links, whose injector state evolves message by
// message, every packet sends its first hop itself.
func (ts *timingSystem) sendPage(mv *pageMove) {
	now := ts.eng.Now()
	route := ts.topo.Route(mv.from, mv.to)
	var first, step sim.Time
	batched := false
	if len(route) > 0 {
		first, step, batched = ts.links[route[0]].SendBatch(now, ts.sys.DataBytes, pageLineMessages)
	}
	for i := 0; i < pageLineMessages; i++ {
		t := ts.getTxn()
		t.mv = mv
		t.at = now
		t.sendStep(mv.from, mv.to, ts.sys.DataBytes)
		if batched {
			// SendBatch already carried packet i over the first hop.
			t.at = first + step.Scale(i)
			t.route, t.hopIdx = route, 1
		}
		t.landStep()
		t.run(now)
	}
}

// landPacket records one page packet's delivery at arr and lands the
// page once every packet has arrived.
func (ts *timingSystem) landPacket(mv *pageMove, arr sim.Time) {
	if arr > mv.last {
		mv.last = arr
	}
	mv.left--
	if mv.left > 0 {
		return
	}
	if ts.w.trc != nil && ts.trcMigN < migrationTraceCap {
		ts.trcMigN++
		ts.w.trc.SpanArgs("migrate", "page move", ts.lanes[mv.to], mv.start, mv.last-mv.start,
			evtrace.Arg{Key: "page", Val: strconv.FormatUint(uint64(mv.page), 10)},
			evtrace.Arg{Key: "from", Val: ts.lanes[mv.from]})
	}
	if mv.last > ts.eng.Now() {
		ts.eng.AtKind(mv.last, "migrate_land", func(sim.Time) { ts.wakeStalled(mv.page) })
	} else {
		ts.wakeStalled(mv.page)
	}
}

// wakeStalled ends page's in-flight migration and re-issues the
// accesses stalled behind it, charging each its wait — to migration, or
// to drain when it stalled behind a fault drain. A re-issue may stall
// again behind a later migration; each leg charges its own wait, so
// chains sum exactly.
func (ts *timingSystem) wakeStalled(page uint32) {
	f := ts.inFlight[page]
	delete(ts.inFlight, page)
	for _, w := range f.waiters {
		if ts.led != nil && w.record {
			cat := attrib.Migration
			if w.drain {
				cat = attrib.Drain
			}
			ts.led.Charge(w.cs.socket, cat, ts.eng.Now()-w.since)
		}
		ts.issueAccess(w.cs, w.a, w.issued, w.record)
	}
}

// chargeHop books one link hop of a recorded demand access into the
// attribution ledger. A Send's round trip decomposes exactly as
// delivered − arrived = retry + queuing + (serialization + propagation):
// retry is fault-injector retrain/backoff, queuing is wire contention
// (CXL or socket-link by channel kind), and the remainder is the hop
// cost itself — charged to coherence on tagged block-transfer legs.
// Caller guarantees ts.led != nil.
//
//starnuma:hotpath one call per charged link hop
func (ts *timingSystem) chargeHop(li int, socket topology.NodeID, arrived, delivered, queuing sim.Time, coh bool) {
	s := int(socket)
	retry := ts.links[li].LastRetry()
	if retry > 0 {
		ts.led.Charge(s, attrib.FaultRetry, retry)
	}
	prop := delivered - arrived - queuing - retry
	if ts.linkCXL[li] {
		ts.led.Charge(s, attrib.CXLQueue, queuing)
		if coh {
			ts.led.Charge(s, attrib.Coherence, prop)
		} else {
			ts.led.Charge(s, attrib.CXLProp, prop)
		}
		return
	}
	ts.led.Charge(s, attrib.LinkQueue, queuing)
	if coh {
		ts.led.Charge(s, attrib.Coherence, prop)
	} else {
		ts.led.Charge(s, attrib.LinkProp, prop)
	}
}

// chargeMem books one memory access of a recorded demand access: the
// controller round trip decomposes exactly as done − arrived = on-chip
// + channel queuing + DRAM service (channel serialization plus device
// latency). Caller guarantees ts.led != nil.
//
//starnuma:hotpath one call per charged memory access
func (ts *timingSystem) chargeMem(socket, node topology.NodeID, arrived, done, queuing sim.Time) {
	s := int(socket)
	onChip := ts.ctrls[node].OnChipLatency()
	ts.led.Charge(s, attrib.OnChip, onChip)
	ts.led.Charge(s, attrib.DRAMQueue, queuing)
	ts.led.Charge(s, attrib.DRAM, done-arrived-onChip-queuing)
}

// start launches the cores and the migration engine.
//
//starnuma:coldpath once-per-window kickoff
func (ts *timingSystem) start(chk Checkpoint) {
	ts.scheduleMigrations(chk)
	for _, cs := range ts.cores {
		// The bound wake event doubles as the kickoff: hasWake is false,
		// so its body is exactly tryIssue.
		ts.eng.AtKind(0, "start", cs.wake)
	}
}

// scheduleMigrations models the window's share of the phase's migrations
// (§IV-C: timing simulation covers the first TimedInstr/PhaseInstr of
// the phase, hence that fraction of its migrations). The initiating core
// serialises migrations at MigrationCostCycles each; page data crosses
// the interconnect and accesses to an in-flight page stall until the
// data lands.
//
//starnuma:coldpath once per window, walks the migration plan
func (ts *timingSystem) scheduleMigrations(chk Checkpoint) {
	frac := float64(ts.cfg.TimedInstr) / float64(ts.cfg.PhaseInstr)
	n := int(float64(len(chk.Migrations)) * frac)
	if n > len(chk.Migrations) {
		n = len(chk.Migrations)
	}
	ts.w.migrModeled = n
	costPS := ts.cfg.MigrationCostCycles.Time(ts.cyclePS)
	for k := 0; k < n; k++ {
		m := chk.Migrations[k]
		startAt := costPS.Scale(k)
		ts.eng.AtKind(startAt, "migrate", func(now sim.Time) {
			page := m.Page
			if ts.tlbs != nil {
				// Hardware-assisted targeted shootdown (§III-D3): only
				// cores caching the translation are invalidated; they
				// repay with a page walk on their next access.
				ts.tlbs.Shootdown(page)
			}
			ts.pageHome[page] = m.To
			f := ts.inFlight[page]
			f.drain = f.drain || m.Drain
			ts.inFlight[page] = f
			from := m.From
			if from == Unassigned {
				from = m.To
			}
			ts.sendPage(&pageMove{page: page, from: from, to: m.To, start: now, left: pageLineMessages})
		})
	}
	// Remaining migrations take effect instantly at window start: the
	// next checkpoint's map already reflects them in step B, and the
	// paper likewise only models the window's share.
	for k := n; k < len(chk.Migrations); k++ {
		ts.pageHome[chk.Migrations[k].Page] = chk.Migrations[k].To
	}
}

// tryIssue advances a core: it reads accesses from its phase-stream
// cursor and issues them subject to the MLP cap and the
// compute-position constraint.
//
//starnuma:hotpath the per-instruction issue loop, dispatched from engine events
func (ts *timingSystem) tryIssue(cs *coreState) {
	if cs.done {
		return
	}
	now := ts.eng.Now()
	for cs.outstanding < ts.mlp {
		if !cs.hasPending {
			if cs.instr >= ts.cfg.TimedInstr {
				// Budget consumed; core finishes when outstanding drain.
				if cs.outstanding == 0 {
					ts.finishCore(cs, now)
				}
				return
			}
			if cs.next == cs.end {
				streamOverrunPanic(cs.id)
			}
			a := ts.stream.At(cs.next)
			cs.next++
			cs.instr += uint64(a.Gap)
			cs.compute += gapTime(a.Gap, ts.ipc0, ts.cyclePS)
			cs.pendingA = a
			cs.hasPending = true
			if !cs.warmupDone && cs.instr >= ts.cfg.WarmupInstr {
				cs.warmupDone = true
				cs.warmupTime = now
				if cs.compute > now {
					cs.warmupTime = cs.compute
				}
				cs.warmupInstr = cs.instr
			}
		}
		if cs.compute > now {
			// Next miss's compute position not reached: wake then.
			if !cs.hasWake || cs.wakeAt > cs.compute {
				cs.hasWake = true
				cs.wakeAt = cs.compute
				ts.eng.AtKind(cs.compute, "wake", cs.wake)
			}
			return
		}
		a := cs.pendingA
		cs.hasPending = false
		cs.outstanding++
		ts.issueAccess(cs, a, now, cs.warmupDone)
	}
}

// finishCore retires a core at the end of its window.
//
//starnuma:hotpath one call per core per window
func (ts *timingSystem) finishCore(cs *coreState, now sim.Time) {
	cs.done = true
	cs.finish = now
	if cs.compute > cs.finish {
		cs.finish = cs.compute
	}
	// Post-warmup IPC.
	instr := float64(cs.instr - cs.warmupInstr)
	elapsed := float64(cs.finish - cs.warmupTime)
	if !cs.warmupDone || elapsed <= 0 {
		instr = float64(cs.instr)
		elapsed = float64(cs.finish)
	}
	ipc := 0.0
	if elapsed > 0 {
		ipc = instr / (elapsed / ts.cyclePS)
	}
	//starnumavet:allow hotalloc once per core per window, bounded by the core count
	ts.w.ipcs = append(ts.w.ipcs, ipc)
	ts.running--
	if ts.running == 0 {
		ts.w.simTime = now
		ts.eng.Halt()
	}
}

// issueAccess simulates one LLC miss end to end.
//
//starnuma:hotpath one call per timed memory access
func (ts *timingSystem) issueAccess(cs *coreState, a workload.Access, issued sim.Time, record bool) {
	// Stall behind an in-flight migration of the page (§IV-C).
	if f, ok := ts.inFlight[a.Page]; ok {
		ts.w.migrStalled++
		//starnumavet:allow hotalloc waiter list exists only while a migration of this page is in flight; stalls are rare by design
		f.waiters = append(f.waiters, stalledAccess{cs: cs, a: a, issued: issued,
			since: ts.eng.Now(), record: record, drain: f.drain})
		ts.inFlight[a.Page] = f
		return
	}
	now := ts.eng.Now()
	// Software-tracking study: the first access to each poisoned page in
	// a phase takes a minor page fault before anything else happens.
	if ts.sampler != nil && ts.sampler.WouldFault(a.Page) {
		ts.sampler.MarkFaulted(a.Page)
		ts.w.pageFaults++
		penalty := ts.cfg.SoftwareTracking.FaultPenaltyCycles.Time(ts.cyclePS)
		if ts.led != nil && record {
			// The fault handler stalls the access for exactly penalty;
			// minor-fault time books under the TLB/translation category.
			ts.led.Charge(cs.socket, attrib.TLB, penalty)
		}
		ts.eng.AtKind(now+penalty, "fault", func(sim.Time) { ts.issueAccessAfterWalk(cs, a, issued, record) })
		return
	}
	// Translation: steady-state TLB behaviour is part of the measured
	// single-socket IPC, so only shootdown-induced walks (the marginal
	// cost of migrations) charge latency — modelled by delaying the
	// access by the page-walk penalty.
	if ts.tlbs != nil {
		if _, shot := ts.tlbs.Access(cs.id, a.Page); shot && ts.cfg.PageWalkPenalty > 0 {
			delay := ts.cfg.PageWalkPenalty
			if ts.w.trc != nil && ts.trcTLBN < tlbTraceCap {
				ts.trcTLBN++
				ts.w.trc.SpanArgs("tlb", "shootdown walk", ts.lanes[cs.socket], now, delay,
					evtrace.Arg{Key: "core", Val: strconv.Itoa(cs.id)})
			}
			if ts.led != nil && record {
				ts.led.Charge(cs.socket, attrib.TLB, delay)
			}
			ts.eng.AtKind(now+delay, "walk", func(sim.Time) { ts.issueAccessAfterWalk(cs, a, issued, record) })
			return
		}
	}
	ts.issueAccessAfterWalk(cs, a, issued, record)
}

// issueAccessAfterWalk continues issueAccess past the translation stage:
// it updates the LLC, consults the directory, and launches the
// transaction programs that model the resulting traffic.
//
//starnuma:hotpath continuation of issueAccess after the TLB verdict
func (ts *timingSystem) issueAccessAfterWalk(cs *coreState, a workload.Access, issued sim.Time, record bool) {
	now := ts.eng.Now()
	socket := topology.NodeID(cs.socket)
	home := ts.pageHome[a.Page]
	if home == Unassigned {
		home = socket // first touch during timing
		ts.pageHome[a.Page] = home
	}
	block := uint64(a.Page)*workload.BlocksPerPage + uint64(a.Block)
	addr := block * cache.BlockBytes

	// Replication study (§V-F): reads of a replicated page are served by
	// the socket-local replica; writes pay the software coherence
	// penalty for invalidating every replica, plus broadcast traffic.
	// Replicated pages bypass the hardware directory — their coherence
	// is software's problem, which is precisely the study's point.
	if ts.replicated != nil && ts.replicated[a.Page] {
		ts.replicatedAccess(cs, a, socket, home, addr, issued, record)
		return
	}

	// LLC presence update; evictions update the directory and generate
	// writeback traffic.
	if victim, vDirty, evicted := ts.llcs[cs.socket].Insert(block, a.Write); evicted {
		if ts.dir.Evict(socket, victim, vDirty) {
			victimPage := uint32(victim / workload.BlocksPerPage)
			vHome := socket
			if int(victimPage) < len(ts.pageHome) && ts.pageHome[victimPage] != Unassigned {
				vHome = ts.pageHome[victimPage]
			}
			// Fire-and-forget writeback of the dirty line.
			wb := ts.getTxn()
			wb.at = now
			wb.sendStep(socket, vHome, ts.sys.DataBytes)
			wb.run(now)
		}
	}

	homeIsPool := ts.topo.HasPool() && home == ts.topo.PoolNode()
	res := ts.dir.Access(socket, block, a.Write, homeIsPool)

	// Invalidations: state updates immediate, traffic asynchronous
	// (request out, acknowledgement back).
	for _, tgt := range res.Invalidate {
		ts.llcs[tgt].Invalidate(block)
		inv := ts.getTxn()
		inv.at = now
		inv.sendStep(home, tgt, ts.sys.MessageBytes)
		inv.sendStep(tgt, home, ts.sys.MessageBytes)
		inv.run(now)
	}
	// A write with a remote dirty owner is an RFO: the transfer itself
	// invalidates the owner's copy (no extra message needed).
	if a.Write && res.Owner >= 0 {
		ts.llcs[res.Owner].Invalidate(block)
	}

	// Tracker metadata traffic (annex flushes).
	if ts.chargeTracker {
		ts.annexCount[cs.socket]++
		if ts.annexCount[cs.socket]%annexFlushBatch == 0 {
			region := int(a.Page) / ts.cfg.RegionPages
			metaNode := topology.NodeID(region % ts.topo.Sockets())
			ax := ts.getTxn()
			ax.at = now
			ax.addr = addr
			ax.sendStep(socket, metaNode, ts.sys.DataBytes)
			ax.memStep(metaNode)
			ax.run(now)
		}
	}

	// The demand access itself.
	t := ts.demandTxn(cs, socket, home, addr, now, issued, record)
	t.res = res
	switch res.Outcome {
	case coherence.Memory:
		t.acc = ts.classify(socket, home)
		ts.homeLegs(t, socket, home)
		t.doneStep(0)
	case coherence.BlockTransfer3Hop:
		// R→H request, directory+memory access at H, H→O forward, O→R
		// data (Fig. 4's red path).
		t.acc = stats.BTSocket
		t.sendStep(socket, home, ts.sys.MessageBytes)
		t.memStep(home)
		t.sendStepCoh(home, res.Owner, ts.sys.MessageBytes)
		t.sendStepCoh(res.Owner, socket, ts.sys.DataBytes)
		t.doneStep(0)
	case coherence.BlockTransfer4Hop:
		poolN := ts.topo.PoolNode()
		t.sendStep(socket, poolN, ts.sys.MessageBytes)
		t.memStep(poolN)
		t.sendStepCoh(poolN, res.Owner, ts.sys.MessageBytes)
		if ts.cfg.ForceDirectBT {
			// Ablation: direct owner→requester transfer despite the pool
			// home — the path Fig. 4 shows to be slower on average.
			t.acc = stats.BTSocket
			t.sendStepCoh(res.Owner, socket, ts.sys.DataBytes)
		} else {
			// R→H(pool), directory at pool, H→O forward, O→H data, H→R
			// data (Fig. 4's blue path).
			t.acc = stats.BTPool
			t.sendStepCoh(res.Owner, poolN, ts.sys.DataBytes)
			t.sendStepCoh(poolN, socket, ts.sys.DataBytes)
		}
		t.doneStep(0)
	default:
		unknownOutcomePanic(res.Outcome)
	}
	t.run(now)
}

// unknownOutcomePanic reports an unhandled coherence outcome. Split out
// of issueAccessAfterWalk so the hot path keeps no fmt reference.
//
//starnuma:coldpath
func unknownOutcomePanic(o coherence.Outcome) {
	panic(fmt.Sprintf("core: unknown outcome %v", o))
}

// replicatedAccess services an access to a software-replicated page.
//
//starnuma:hotpath replica-read variant of issueAccess
func (ts *timingSystem) replicatedAccess(cs *coreState, a workload.Access,
	socket, home topology.NodeID, addr uint64, issued sim.Time, record bool) {
	now := ts.eng.Now()
	if !a.Write {
		if record {
			ts.w.replicaReads++
		}
		t := ts.demandTxn(cs, socket, home, addr, now, issued, record)
		t.acc = stats.Local
		t.memStep(socket)
		t.doneStep(doneReplica)
		t.run(now)
		return
	}
	// Store: software replica coherence. Broadcast invalidations to every
	// other socket, stall for the kernel-level penalty, then update the
	// page's home copy.
	if record {
		ts.w.replicaWriteStalls++
	}
	for s := 0; s < ts.topo.Sockets(); s++ {
		if topology.NodeID(s) == socket {
			continue
		}
		inv := ts.getTxn()
		inv.at = now
		inv.sendStep(socket, topology.NodeID(s), ts.sys.MessageBytes)
		inv.run(now)
	}
	penalty := ts.cfg.Replication.WritePenaltyCycles.Time(ts.cyclePS)
	t := ts.demandTxn(cs, socket, home, addr, now+penalty, issued, record)
	t.acc = ts.classify(socket, home)
	t.replicaStep()
	ts.homeLegs(t, socket, home)
	t.doneStep(doneReplica)
	t.run(now)
}

// demandTxn returns a transaction carrying a core's access: its
// completion context and first step's start time at. The caller adds
// the program.
//
//starnuma:hotpath one call per timed access
func (ts *timingSystem) demandTxn(cs *coreState, socket, home topology.NodeID,
	addr uint64, at, issued sim.Time, record bool) *txn {
	t := ts.getTxn()
	t.at = at
	t.addr = addr
	t.cs = cs
	t.issued = issued
	t.record = record
	t.socket, t.home = socket, home
	return t
}

// homeLegs appends a memory-served access: the request to home, the
// DRAM access there, and the data reply (no network legs when home is
// the requester's own socket).
//
//starnuma:hotpath one call per memory-served access
func (ts *timingSystem) homeLegs(t *txn, socket, home topology.NodeID) {
	if home != socket {
		t.sendStep(socket, home, ts.sys.MessageBytes)
	}
	t.memStep(home)
	if home != socket {
		t.sendStep(home, socket, ts.sys.DataBytes)
	}
}

// classify maps a memory access to its Fig. 8c category.
//
//starnuma:hotpath per-access latency-class bucketing
func (ts *timingSystem) classify(socket, home topology.NodeID) stats.AccessType {
	switch {
	case home == socket:
		return stats.Local
	case ts.topo.HasPool() && home == ts.topo.PoolNode():
		return stats.Pool
	case ts.topo.Chassis(socket) == ts.topo.Chassis(home):
		return stats.OneHop
	default:
		return stats.TwoHop
	}
}

// unfinishedPanic reports cores left running after the event queue
// drained. Split out of runWindow so the hot path keeps no fmt
// reference.
//
//starnuma:coldpath
func unfinishedPanic(running, phase int) {
	panic(fmt.Sprintf("core: %d cores never finished window (phase %d)", running, phase))
}

// streamOverrunPanic reports a core that consumed its whole phase
// stream before its timed budget — impossible, as prepare binds the
// stream recorded at exactly that budget.
//
//starnuma:coldpath
func streamOverrunPanic(core int) {
	panic(fmt.Sprintf("core: core %d ran past its recorded phase stream", core))
}

// runWindow executes one checkpoint's timing simulation.
//
//starnuma:hotpath the step-C window timing simulation
func runWindow(sys SystemConfig, cfg SimConfig, gen AccessSource,
	chk Checkpoint, replicated []bool) windowStats {
	ts := acquireTimingSystem(sys, cfg, gen, chk, replicated)
	ts.start(chk)
	ts.eng.Run()
	// Cores that never finished (possible only on malformed configs)
	// would leave running > 0; guard against silent nonsense.
	if ts.running != 0 {
		unfinishedPanic(ts.running, chk.Phase)
	}
	for _, cs := range ts.cores {
		ts.w.instr += cs.instr - cs.warmupInstr
	}
	ts.w.dir = ts.dir.Stats()
	if ts.tlbs != nil {
		ts.w.tlb = ts.tlbs.Stats()
	}
	for _, inj := range ts.injectors {
		st := inj.Stats()
		ts.w.faultDegraded += st.DegradedSends
		ts.w.faultRetries += st.FlapRetries
		ts.w.faultRetryPS += st.RetryTime
	}
	if ts.led != nil {
		// Snapshot the attribution ledger with the window's conservation
		// target: the cells must sum exactly to the AMAT latency total.
		wp := ts.led.Window(chk.Phase, int64(ts.w.amat.SumLatency()))
		ts.w.prof = &wp
	}
	if ts.met != nil {
		ts.harvest(chk.Phase)
		ts.w.met = ts.met.Snapshot()
	}
	if ts.w.trc != nil {
		// The whole window as one span on the "sim" lane, recorded last
		// so its duration is the settled window length.
		ts.w.trc.SpanArgs("window", "window "+strconv.Itoa(chk.Phase), "sim", 0, ts.w.simTime,
			evtrace.Arg{Key: "phase", Val: strconv.Itoa(chk.Phase)},
			evtrace.Arg{Key: "migrations", Val: strconv.Itoa(ts.w.migrModeled)})
	}
	w := ts.w
	releaseTimingSystem(ts)
	return w
}
