// Package memdev models DRAM memory devices: per-node memory controllers
// with one or more DDR channels.
//
// A memory access at a node costs a fixed on-chip portion (LLC-miss
// handling, arbitration, directory lookup) plus the DRAM access latency,
// and occupies one channel for size/bandwidth, which is where local and
// pool memory bandwidth contention arises. With the default constants an
// unloaded local access totals the paper's 80ns (§II-A): 30ns on-chip +
// 50ns DRAM.
package memdev

import (
	"fmt"

	"starnuma/internal/fault"
	"starnuma/internal/link"
	"starnuma/internal/sim"
)

// Config describes one node's memory subsystem.
type Config struct {
	Channels    int       // number of DDR channels
	ChannelBW   link.GBps // per-channel bandwidth
	OnChip      sim.Time  // on-chip portion charged per access
	DRAMLatency sim.Time  // DRAM array access latency
}

// DefaultSocketConfig matches the paper's scaled simulation socket
// (Table II): one DDR5 channel.
func DefaultSocketConfig() Config {
	return Config{Channels: 1, ChannelBW: 38.4, OnChip: 30 * sim.Nanosecond, DRAMLatency: 50 * sim.Nanosecond}
}

// DefaultPoolConfig matches the paper's scaled pool (Table II): two DDR5
// channels.
func DefaultPoolConfig() Config {
	return Config{Channels: 2, ChannelBW: 38.4, OnChip: 30 * sim.Nanosecond, DRAMLatency: 50 * sim.Nanosecond}
}

// Controller is one node's memory controller. It is not safe for
// concurrent use; the simulation is single-threaded.
type Controller struct {
	name     string
	cfg      Config
	channels []*link.Link
	remap    []int // fault remap of channel indexes; nil = healthy
}

// NewController builds a controller from cfg. It panics on nonsensical
// configuration (these are programmer-supplied constants).
func NewController(name string, cfg Config) *Controller {
	if cfg.Channels <= 0 {
		panic(fmt.Sprintf("memdev %s: %d channels", name, cfg.Channels))
	}
	if cfg.OnChip < 0 || cfg.DRAMLatency < 0 {
		panic(fmt.Sprintf("memdev %s: negative latency", name))
	}
	c := &Controller{name: name, cfg: cfg}
	for i := 0; i < cfg.Channels; i++ {
		c.channels = append(c.channels,
			link.New(fmt.Sprintf("%s.ch%d", name, i), cfg.ChannelBW, cfg.DRAMLatency))
	}
	return c
}

// Name returns the label the controller was constructed with.
func (c *Controller) Name() string { return c.name }

// Config returns the controller's configuration.
func (c *Controller) Config() Config { return c.cfg }

// OnChipLatency is the fixed on-chip portion every access pays before
// reaching a channel. The stall-attribution ledger (internal/attrib)
// uses it to split an Access round trip into on-chip, queuing, and
// DRAM-service segments.
func (c *Controller) OnChipLatency() sim.Time { return c.cfg.OnChip }

// UnloadedLatency is the zero-contention service time of one access.
func (c *Controller) UnloadedLatency() sim.Time {
	return c.cfg.OnChip + c.cfg.DRAMLatency
}

// Access services a memory access of size bytes to addr arriving at the
// controller at time now. It returns when the data is available and the
// queuing delay suffered at the channel.
//
//starnuma:hotpath one call per memory-device access
func (c *Controller) Access(now sim.Time, addr uint64, bytes int) (done, queuing sim.Time) {
	return c.channels[c.channelFor(addr)].Send(now+c.cfg.OnChip, bytes)
}

// channelFor interleaves 64B blocks across channels, as real controllers
// do, so streaming access spreads evenly. Under a fault remap, failed
// channels' shares fold onto the survivors.
func (c *Controller) channelFor(addr uint64) int {
	i := int((addr >> 6) % uint64(c.cfg.Channels))
	if c.remap != nil {
		i = c.remap[i]
	}
	return i
}

// ApplyFault reroutes traffic off the channels st marks failed: each
// failed channel's interleave share folds onto the surviving channels
// round-robin, which is where a dying channel's bandwidth loss shows up
// as contention. A fully dead device keeps its lowest-indexed channel
// answering as a documented emergency path, so drain traffic and stale
// accesses still complete — graceful degradation, never a stall or a
// panic. A healthy st clears any previous remap.
func (c *Controller) ApplyFault(st fault.PoolState) {
	failed := make([]bool, c.cfg.Channels)
	if st.Dead {
		for i := range failed {
			failed[i] = true
		}
	}
	for _, ch := range st.Down {
		if ch >= 0 && ch < len(failed) {
			failed[ch] = true
		}
	}
	var surviving []int
	for i, f := range failed {
		if !f {
			surviving = append(surviving, i)
		}
	}
	if len(surviving) == c.cfg.Channels {
		c.remap = nil
		return
	}
	if len(surviving) == 0 {
		surviving = []int{0} // emergency channel
	}
	remap := make([]int, c.cfg.Channels)
	for i := range remap {
		remap[i] = surviving[i%len(surviving)]
	}
	c.remap = remap
}

// Stats returns per-channel counters.
func (c *Controller) Stats() []link.Stats {
	out := make([]link.Stats, len(c.channels))
	for i, ch := range c.channels {
		out[i] = ch.Stats()
	}
	return out
}

// Reset clears all channel counters and busy horizons.
func (c *Controller) Reset() {
	for _, ch := range c.channels {
		ch.Reset()
	}
}
