// Package topology models the interconnect layout of a hierarchical
// multi-socket system in the style of the HPE Superdome FLEX studied by
// the StarNUMA paper (§II-A, Fig. 1), optionally extended with a CXL
// star-connected memory pool (§III).
//
// The system consists of chassis housing a fixed number of sockets each.
// Sockets within a chassis are fully connected by UPI links. Each chassis
// hosts two FLEX ASICs; every socket attaches to one of them, and every
// ASIC has a NUMALink to each ASIC in every other chassis, so any two
// chassis are one NUMALink apart. The optional memory pool is a separate
// node directly connected to every socket by a dedicated CXL link.
//
// The package enumerates directed channels (the unit of bandwidth
// contention) and computes hop-by-hop routes with per-hop one-way
// latencies. Latency constants are configurable so the paper's
// sensitivity studies (e.g. Fig. 10's 190ns CXL penalty) are one config
// change away.
package topology

import (
	"fmt"

	"starnuma/internal/sim"
)

// NodeID identifies an endpoint that can source or sink memory traffic:
// sockets are 0..Sockets-1 and the memory pool (if present) is node
// Sockets.
type NodeID int

// ChannelKind classifies a directed channel for bandwidth assignment.
type ChannelKind int

const (
	// KindUPI is a socket-to-socket link within a chassis.
	KindUPI ChannelKind = iota
	// KindUPIASIC is the UPI link between a socket and its FLEX ASIC.
	KindUPIASIC
	// KindNUMALink is an inter-chassis link between two FLEX ASICs.
	KindNUMALink
	// KindCXL is the dedicated link between a socket and the pool.
	KindCXL
)

// String returns the conventional name of the channel kind.
func (k ChannelKind) String() string {
	switch k {
	case KindUPI:
		return "UPI"
	case KindUPIASIC:
		return "UPI-ASIC"
	case KindNUMALink:
		return "NUMALink"
	case KindCXL:
		return "CXL"
	default:
		return fmt.Sprintf("ChannelKind(%d)", int(k))
	}
}

// Channel is one direction of a physical link. Bandwidth contention is
// modelled per channel by higher layers.
type Channel struct {
	ID      int
	Kind    ChannelKind
	Latency sim.Time // one-way propagation + traversal latency of this hop
	// From/To describe the endpoints for diagnostics. Sockets are
	// "s<N>", ASICs "a<chassis>.<idx>", the pool "pool".
	From, To string
}

// Config describes the system shape and latency constants.
type Config struct {
	Sockets           int // total sockets; must be a multiple of SocketsPerChassis
	SocketsPerChassis int // sockets housed per chassis (4 in the paper)
	HasPool           bool

	// One-way latencies. The defaults (DefaultConfig) are chosen so the
	// paper's end-to-end unloaded numbers emerge exactly: 130ns 1-hop,
	// 360ns 2-hop, 180ns pool access (see DESIGN.md §3).
	UPIOneWay  sim.Time // socket↔socket and socket↔ASIC hop
	ASICOneWay sim.Time // traversal latency per FLEX ASIC
	NUMAOneWay sim.Time // inter-chassis NUMALink flight
	CXLOneWay  sim.Time // socket↔pool, all CXL pipeline stages summed
}

// DefaultConfig returns the paper's 16-socket, four-chassis system with a
// memory pool.
func DefaultConfig() Config {
	return Config{
		Sockets:           16,
		SocketsPerChassis: 4,
		HasPool:           true,
		UPIOneWay:         25 * sim.Nanosecond,
		ASICOneWay:        20 * sim.Nanosecond,
		NUMAOneWay:        50 * sim.Nanosecond,
		CXLOneWay:         50 * sim.Nanosecond,
	}
}

// Validate reports whether the configuration is structurally sound.
func (c Config) Validate() error {
	if c.Sockets <= 0 {
		return fmt.Errorf("topology: Sockets = %d, must be positive", c.Sockets)
	}
	if c.SocketsPerChassis <= 0 {
		return fmt.Errorf("topology: SocketsPerChassis = %d, must be positive", c.SocketsPerChassis)
	}
	if c.Sockets%c.SocketsPerChassis != 0 {
		return fmt.Errorf("topology: Sockets (%d) not a multiple of SocketsPerChassis (%d)",
			c.Sockets, c.SocketsPerChassis)
	}
	if c.UPIOneWay < 0 || c.ASICOneWay < 0 || c.NUMAOneWay < 0 || c.CXLOneWay < 0 {
		return fmt.Errorf("topology: negative latency in config")
	}
	return nil
}

// Topology is an immutable description of the interconnect: the directed
// channel table plus precomputed routes between every pair of nodes.
type Topology struct {
	cfg      Config
	channels []Channel
	// routes[from][to] is the ordered list of channel IDs a message
	// traverses from node `from` to node `to`. Empty for from == to.
	routes [][][]int
}

// New builds the topology for cfg. It panics on invalid configuration;
// configurations are programmer-supplied constants, not user input.
func New(cfg Config) *Topology {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	t := &Topology{cfg: cfg}
	t.build()
	return t
}

// Config returns the configuration the topology was built from.
func (t *Topology) Config() Config { return t.cfg }

// Sockets returns the number of CPU sockets.
func (t *Topology) Sockets() int { return t.cfg.Sockets }

// Chassis returns the chassis index housing socket s.
func (t *Topology) Chassis(s NodeID) int { return int(s) / t.cfg.SocketsPerChassis }

// NumChassis returns the number of chassis in the system.
func (t *Topology) NumChassis() int { return t.cfg.Sockets / t.cfg.SocketsPerChassis }

// PoolNode returns the node ID of the memory pool. Callers must only use
// it when HasPool is set.
func (t *Topology) PoolNode() NodeID { return NodeID(t.cfg.Sockets) }

// HasPool reports whether the system includes a memory pool.
func (t *Topology) HasPool() bool { return t.cfg.HasPool }

// Nodes returns the number of routable nodes (sockets plus pool).
func (t *Topology) Nodes() int {
	if t.cfg.HasPool {
		return t.cfg.Sockets + 1
	}
	return t.cfg.Sockets
}

// Channels returns the directed channel table. Callers must not mutate it.
func (t *Topology) Channels() []Channel { return t.channels }

// Route returns the channel IDs traversed from node from to node to, in
// order. The returned slice is shared; callers must not mutate it.
func (t *Topology) Route(from, to NodeID) []int {
	return t.routes[from][to]
}

// OneWayLatency returns the summed per-hop latency from from to to,
// excluding any endpoint (memory/directory) time.
func (t *Topology) OneWayLatency(from, to NodeID) sim.Time {
	var total sim.Time
	for _, id := range t.routes[from][to] {
		total += t.channels[id].Latency
	}
	return total
}

// ThreeHopPaths sums the unloaded network latency of every coherence
// 3-hop block transfer R→H→O→R over the sockets (requester R, home H,
// owner O ≠ R) and returns the sum with the number of paths, so callers
// take the mean at their own precision. Both are 0 with one socket.
func (t *Topology) ThreeHopPaths() (sum sim.Time, n int) {
	for r := NodeID(0); int(r) < t.cfg.Sockets; r++ {
		for h := NodeID(0); int(h) < t.cfg.Sockets; h++ {
			for o := NodeID(0); int(o) < t.cfg.Sockets; o++ {
				if r == o {
					continue
				}
				sum += t.OneWayLatency(r, h) + t.OneWayLatency(h, o) + t.OneWayLatency(o, r)
				n++
			}
		}
	}
	return sum, n
}

// HopCount classifies an access from a socket to a home node by the
// paper's terminology: 0 = local, 1 = intra-chassis (single UPI hop),
// 2 = inter-chassis (through both ASICs).
func (t *Topology) HopCount(from, to NodeID) int {
	if from == to {
		return 0
	}
	if t.cfg.HasPool && (from == t.PoolNode() || to == t.PoolNode()) {
		return 1 // single CXL hop, reported separately by callers
	}
	if t.Chassis(from) == t.Chassis(to) {
		return 1
	}
	return 2
}

// asicIndex returns which of its chassis' two ASICs socket s attaches to.
// With four sockets per chassis, sockets 0-1 use ASIC 0 and 2-3 use ASIC
// 1, halving each ASIC's socket fan-in as in the FLEX design.
func (t *Topology) asicIndex(s NodeID) int {
	within := int(s) % t.cfg.SocketsPerChassis
	if within < (t.cfg.SocketsPerChassis+1)/2 {
		return 0
	}
	return 1
}

func (t *Topology) build() {
	cfg := t.cfg
	nodes := t.Nodes()
	t.routes = make([][][]int, nodes)
	for i := range t.routes {
		t.routes[i] = make([][]int, nodes)
	}

	addChannel := func(kind ChannelKind, lat sim.Time, from, to string) int {
		id := len(t.channels)
		t.channels = append(t.channels, Channel{ID: id, Kind: kind, Latency: lat, From: from, To: to})
		return id
	}
	sockName := func(s NodeID) string { return fmt.Sprintf("s%d", int(s)) }
	asicName := func(chassis, idx int) string { return fmt.Sprintf("a%d.%d", chassis, idx) }

	// Intra-chassis UPI mesh: a directed channel for every ordered pair
	// of distinct sockets in the same chassis.
	upi := make(map[[2]NodeID]int)
	for a := NodeID(0); int(a) < cfg.Sockets; a++ {
		for b := NodeID(0); int(b) < cfg.Sockets; b++ {
			if a == b || t.Chassis(a) != t.Chassis(b) {
				continue
			}
			upi[[2]NodeID{a, b}] = addChannel(KindUPI, cfg.UPIOneWay, sockName(a), sockName(b))
		}
	}

	// Socket↔ASIC UPI links (one ASIC per socket, two per chassis).
	nChassis := t.NumChassis()
	sockToASIC := make(map[NodeID]int)
	asicToSock := make(map[NodeID]int)
	for s := NodeID(0); int(s) < cfg.Sockets; s++ {
		ch := t.Chassis(s)
		an := asicName(ch, t.asicIndex(s))
		sockToASIC[s] = addChannel(KindUPIASIC, cfg.UPIOneWay, sockName(s), an)
		asicToSock[s] = addChannel(KindUPIASIC, cfg.UPIOneWay, an, sockName(s))
	}

	// Inter-chassis NUMALinks: every ASIC connects to every ASIC of every
	// other chassis. The channel's latency folds in both ASIC traversals
	// plus the link flight time, since the ASICs are crossed exactly when
	// the NUMALink is.
	type asicKey struct{ chassis, idx int }
	numa := make(map[[2]asicKey]int)
	numaLat := cfg.NUMAOneWay + 2*cfg.ASICOneWay
	for c1 := 0; c1 < nChassis; c1++ {
		for i1 := 0; i1 < 2; i1++ {
			for c2 := 0; c2 < nChassis; c2++ {
				if c1 == c2 {
					continue
				}
				for i2 := 0; i2 < 2; i2++ {
					k := [2]asicKey{{c1, i1}, {c2, i2}}
					numa[k] = addChannel(KindNUMALink, numaLat, asicName(c1, i1), asicName(c2, i2))
				}
			}
		}
	}

	// CXL star: one dedicated link per socket, each direction.
	var cxlToPool, cxlFromPool map[NodeID]int
	if cfg.HasPool {
		cxlToPool = make(map[NodeID]int)
		cxlFromPool = make(map[NodeID]int)
		for s := NodeID(0); int(s) < cfg.Sockets; s++ {
			cxlToPool[s] = addChannel(KindCXL, cfg.CXLOneWay, sockName(s), "pool")
			cxlFromPool[s] = addChannel(KindCXL, cfg.CXLOneWay, "pool", sockName(s))
		}
	}

	// Precompute routes.
	pool := t.PoolNode()
	for from := NodeID(0); int(from) < nodes; from++ {
		for to := NodeID(0); int(to) < nodes; to++ {
			if from == to {
				continue
			}
			switch {
			case cfg.HasPool && from == pool:
				t.routes[from][to] = []int{cxlFromPool[to]}
			case cfg.HasPool && to == pool:
				t.routes[from][to] = []int{cxlToPool[from]}
			case t.Chassis(from) == t.Chassis(to):
				t.routes[from][to] = []int{upi[[2]NodeID{from, to}]}
			default:
				srcA := asicKey{t.Chassis(from), t.asicIndex(from)}
				dstA := asicKey{t.Chassis(to), t.asicIndex(to)}
				t.routes[from][to] = []int{
					sockToASIC[from],
					numa[[2]asicKey{srcA, dstA}],
					asicToSock[to],
				}
			}
		}
	}
}
