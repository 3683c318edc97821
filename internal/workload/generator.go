package workload

import (
	"fmt"
	"math"
	"sort"

	"starnuma/internal/stats"
)

// Generator produces deterministic per-core LLC-miss streams for one
// workload on a given system shape.
//
// Determinism contract: page→class and page→sharer-set assignments are
// pure functions of (spec.Seed, page). Per-core streams are pure
// functions of (spec.Seed, core, phase), so step B (trace simulation)
// and step C (timing simulation) of the evaluation pipeline replay
// byte-identical streams, mirroring the paper's reuse of one trace for
// both steps (§IV-A).
type Generator struct {
	spec           Spec
	sockets        int
	coresPerSocket int

	classStart []uint32 // page range start per class; end = start of next
	classEnd   []uint32

	// pagesFor[class][socket] lists the class's pages whose sharer set
	// includes the socket.
	pagesFor [][][]uint32

	// chunkSharers caches the balanced per-chunk sharer assignment for
	// the current phase epoch (see assignSharers).
	chunkSharers map[uint32][]int

	// bySocket[socket] is what the draw kernel selects classes and
	// pages from for that socket (see draw.go).
	bySocket []socketDraw

	rngs []splitmix64 // one stream per core, reseeded in place per phase

	// meanGap caches spec.MeanGap() off the draw path; gapTab is its
	// shared gap table, fetched on the first draw (see draw.go).
	meanGap float64
	gapTab  *gapTable

	// phase is the current phase; it participates in sharer-set hashing
	// for drifting chunks (Spec.DriftFrac).
	phase int

	// Stream replay state (see stream.go). With a non-zero budget,
	// ResetPhase binds stream to the recorded stream of streamPhase and
	// Next replays it via per-core cursors instead of drawing.
	budget      uint64
	sig         string
	stream      *PhaseStream
	streamPhase int
	cursor      []int32
}

// NewGenerator builds a generator for spec on a system of
// sockets × coresPerSocket cores. Sharer counts are clamped to the
// socket count, which is how single-socket (Table III) runs reuse the
// same specs. It returns an error if the spec is invalid.
func NewGenerator(spec Spec, sockets, coresPerSocket int) (*Generator, error) {
	if sockets <= 0 || coresPerSocket <= 0 {
		return nil, fmt.Errorf("workload: invalid system shape %dx%d", sockets, coresPerSocket)
	}
	valSockets := sockets
	if valSockets < 16 {
		valSockets = 16 // specs are authored for 16 sockets; smaller systems clamp
	}
	if err := spec.Validate(valSockets); err != nil {
		return nil, err
	}
	g := &Generator{
		spec:           spec,
		sockets:        sockets,
		coresPerSocket: coresPerSocket,
		rngs:           make([]splitmix64, sockets*coresPerSocket),
		meanGap:        spec.MeanGap(),
	}
	g.assignPages()
	g.buildClassWeights()
	g.ResetPhase(0)
	return g, nil
}

// Spec returns the workload specification.
func (g *Generator) Spec() Spec { return g.spec }

// NumPages returns the footprint size in pages.
func (g *Generator) NumPages() int { return g.spec.FootprintPages }

// NumCores returns the total core count.
func (g *Generator) NumCores() int { return len(g.rngs) }

// SocketOf maps a core index to its socket.
func (g *Generator) SocketOf(core int) int { return core / g.coresPerSocket }

// assignPages partitions the footprint into per-class contiguous ranges,
// assigns each chunk a balanced sharer set, and builds per-socket page
// lists.
func (g *Generator) assignPages() {
	n := g.spec.FootprintPages
	nc := len(g.spec.Classes)
	g.classStart = make([]uint32, nc)
	g.classEnd = make([]uint32, nc)
	g.pagesFor = make([][][]uint32, nc)
	g.chunkSharers = make(map[uint32][]int)

	next := uint32(0)
	for ci, c := range g.spec.Classes {
		count := uint32(math.Round(c.PageShare * float64(n)))
		if ci == nc-1 { // absorb rounding in the last class
			count = uint32(n) - next
		}
		if count == 0 && c.PageShare > 0 {
			count = 1
		}
		g.classStart[ci] = next
		g.classEnd[ci] = next + count
		next += count

		g.assignSharers(ci)
		g.pagesFor[ci] = make([][]uint32, g.sockets)
		for p := g.classStart[ci]; p < g.classEnd[ci]; p++ {
			for _, s := range g.sharersOf(ci, p) {
				g.pagesFor[ci][s] = append(g.pagesFor[ci][s], p)
			}
		}
	}
}

// assignSharers draws the sharer set of every chunk of class ci with
// balanced socket coverage: each chunk's k sockets are the least-covered
// sockets so far (ties broken by a per-chunk hash). Every socket
// therefore serves ≈ the same number of chunks per class, matching the
// paper's assumption of symmetric threads ("all threads of the same
// workload achieve, on average, similar IPC", §IV-B). Without balancing,
// a socket covering fewer chunks would concentrate its fixed access
// budget onto them, skewing per-page heat systematically.
func (g *Generator) assignSharers(ci int) {
	c := g.spec.Classes[ci]
	coverage := make([]int, g.sockets)
	firstChunk := g.classStart[ci] / SharerChunkPages
	lastChunk := (g.classEnd[ci] - 1) / SharerChunkPages
	for chunk := firstChunk; chunk <= lastChunk; chunk++ {
		if _, done := g.chunkSharers[chunk]; done {
			continue // chunk straddles a class boundary: first class wins
		}
		epoch := g.chunkEpoch(uint64(chunk))
		k := c.MinSharers
		if c.MaxSharers > c.MinSharers {
			k += int(mix(g.spec.Seed, uint64(chunk), 0xA) % uint64(c.MaxSharers-c.MinSharers+1))
		}
		if k == 1 {
			owner := int(chunk) % g.sockets
			if epoch != 0 {
				owner = int(mix(g.spec.Seed, uint64(chunk), 0xE0+epoch) % uint64(g.sockets))
			}
			g.chunkSharers[chunk] = []int{owner}
			coverage[owner]++
			continue
		}
		// Specs are authored for 16 sockets; larger systems (§III-B's
		// scaling study) scale sharer counts proportionally.
		if g.sockets > 16 {
			k = k * g.sockets / 16
		}
		if k > g.sockets {
			k = g.sockets
		}
		// Order sockets by (coverage, per-chunk hash) and take the k
		// least covered.
		order := make([]int, g.sockets)
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			sa, sb := order[a], order[b]
			if coverage[sa] != coverage[sb] {
				return coverage[sa] < coverage[sb]
			}
			return mix(g.spec.Seed, uint64(chunk), 0xB+epoch, uint64(sa)) <
				mix(g.spec.Seed, uint64(chunk), 0xB+epoch, uint64(sb))
		})
		set := append([]int(nil), order[:k]...)
		sort.Ints(set)
		for _, sck := range set {
			coverage[sck]++
		}
		g.chunkSharers[chunk] = set
	}
}

// chunkEpoch returns the drift epoch for a chunk (0 when stationary).
func (g *Generator) chunkEpoch(chunk uint64) uint64 {
	if g.spec.DriftFrac <= 0 {
		return 0
	}
	if float64(mix(g.spec.Seed, chunk, 0xD)%1000)/1000 >= g.spec.DriftFrac {
		return 0
	}
	period := g.spec.DriftPeriod
	if period < 1 {
		period = 1
	}
	return uint64(g.phase / period)
}

// SharerChunkPages is the spatial-correlation granularity of sharer
// sets: consecutive pages in one chunk are accessed by the same set of
// sockets. Real workloads exhibit exactly this locality (a thread's
// partition, a shard, a sub-graph is contiguous), and it is what makes
// region-granularity tracking (§III-D4) meaningful — the paper's
// regions are physically contiguous and therefore socket-coherent.
const SharerChunkPages = 32

// sharersOf returns the sharer sockets of page p in class ci, from the
// balanced per-chunk assignment (see assignSharers).
func (g *Generator) sharersOf(ci int, p uint32) []int {
	_ = ci
	return g.chunkSharers[p/SharerChunkPages]
}

// Sharers returns the sharer sockets of page p (for tests and analysis).
func (g *Generator) Sharers(p uint32) []int {
	ci := g.classOf(p)
	return g.sharersOf(ci, p)
}

// ClassOf returns the index of the class containing page p.
func (g *Generator) classOf(p uint32) int {
	for ci := range g.classStart {
		if p >= g.classStart[ci] && p < g.classEnd[ci] {
			return ci
		}
	}
	panic(fmt.Sprintf("workload %s: page %d outside footprint", g.spec.Name, p))
}

func (g *Generator) buildClassWeights() {
	// A socket's weight for a class is the class's access share scaled
	// by the fraction of the class's per-page traffic this socket is
	// responsible for: each page receives 1/k of its accesses from each
	// of its k sharers. Without this scaling, a socket appearing in few
	// chunks of a class would hammer each of them k× harder than the
	// other sharers — a systematic asymmetry that (among other things)
	// lets argmax-based migration policies concentrate whole chunks onto
	// a handful of sockets.
	classPages := make([]float64, len(g.spec.Classes))
	for ci := range g.spec.Classes {
		classPages[ci] = float64(g.classEnd[ci] - g.classStart[ci])
	}
	shareOf := func(ci, s int) float64 {
		if stats.IsZero(classPages[ci]) {
			return 0
		}
		var sum float64
		for _, p := range g.pagesFor[ci][s] {
			sum += 1 / float64(len(g.sharersOf(ci, p)))
		}
		return sum / classPages[ci]
	}

	g.bySocket = make([]socketDraw, g.sockets)
	for s := 0; s < g.sockets; s++ {
		var cum float64
		var picks []classPick
		for ci, c := range g.spec.Classes {
			if len(g.pagesFor[ci][s]) == 0 {
				continue
			}
			w := c.AccessShare * float64(g.sockets) * shareOf(ci, s)
			if w <= 0 {
				continue
			}
			cum += w
			picks = append(picks, classPick{cum: cum, writeFrac: c.WriteFrac, pages: g.pagesFor[ci][s]})
		}
		if len(picks) == 0 {
			if g.spec.DriftFrac > 0 {
				// Drift can transiently strand a socket at tiny
				// footprints; fall back to the largest class so its
				// cores still generate work.
				big, bigLen := 0, 0
				for ci := range g.pagesFor {
					for _, lst := range g.pagesFor[ci] {
						if len(lst) > bigLen {
							big, bigLen = ci, len(lst)
						}
					}
				}
				for _, lst := range g.pagesFor[big] {
					if len(lst) > 0 {
						g.pagesFor[big][s] = lst
						break
					}
				}
				g.bySocket[s] = newSocketDraw([]classPick{{cum: 1,
					writeFrac: g.spec.Classes[big].WriteFrac, pages: g.pagesFor[big][s]}})
				continue
			}
			panic(fmt.Sprintf("workload %s: socket %d has no accessible pages", g.spec.Name, s))
		}
		// Normalize.
		for i := range picks {
			picks[i].cum /= cum
		}
		g.bySocket[s] = newSocketDraw(picks)
	}
}

// ResetPhase re-seeds every core's stream for the given phase. Streams
// are stationary across phases (the paper observes sharing patterns are
// stable over time, §V-B); distinct phases still get decorrelated
// streams. With a non-zero DriftFrac, drifting chunks re-draw their
// sharer sets, so the per-socket page lists are rebuilt.
func (g *Generator) ResetPhase(phase int) {
	if g.spec.DriftFrac > 0 && phase != g.phase {
		g.phase = phase
		g.assignPages()
		g.buildClassWeights()
	}
	for core := range g.rngs {
		g.rngs[core] = splitmix64{state: mix(g.spec.Seed, uint64(core)+1, uint64(phase)+1)}
	}
	if g.budget > 0 {
		g.loadStream(phase)
	} else {
		g.stream = nil
	}
}

// MaxGap bounds the exponential gap draw so a single pathological sample
// cannot stall a phase. Recorded streams store Gap-1 in 16 bits, so no
// access of any source may exceed it.
const MaxGap = 1 << 16

// Next returns core's next LLC miss: a pure array read when a recorded
// phase stream is bound (see SetPhaseBudget), a fresh draw of the draw
// kernel otherwise. Both paths yield bit-identical streams — replay is
// a recording of the very draws the kernel makes.
//
//starnuma:hotpath one call per sampled LLC miss, in the sharing figure and perfbench's component replay
func (g *Generator) Next(core int) Access {
	if s := g.stream; s != nil {
		i := g.cursor[core]
		if i >= s.Off[core+1] {
			streamOverrun(core)
		}
		g.cursor[core] = i + 1
		return s.At(i)
	}
	if g.gapTab == nil {
		g.gapTab = gapTableFor(g.meanGap)
	}
	var gapM1 [1]uint16
	var word [1]uint32
	g.draw(core, gapM1[:], word[:], 0, 1)
	return unpack(gapM1[0], word[0])
}
