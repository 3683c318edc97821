// Package link models bandwidth-constrained, work-conserving links.
//
// Each Link represents one direction of a physical channel (UPI,
// NUMALink, or CXL in the StarNUMA system). Messages are serialized in
// FIFO order: a message arriving at time t begins transmission at
// max(t, link-free time), occupies the wire for size/bandwidth, and then
// experiences the channel's propagation latency. The difference between
// arrival and transmission start is the queuing delay that the paper's
// "Contention Delay" AMAT component measures (§V-A, Fig. 8b).
package link

import (
	"fmt"
	"strconv"

	"starnuma/internal/evtrace"
	"starnuma/internal/fault"
	"starnuma/internal/sim"
	"starnuma/internal/stats"
)

// faultTraceSample records every N-th fault-adjusted send; adjusted
// sends on a degraded link are the common case, not the exception, so
// tracing each would swamp the timeline.
const faultTraceSample = 64

// Link is a single-direction bandwidth server.
type Link struct {
	name       string
	latency    sim.Time // propagation/traversal latency after serialization
	psPerByte  float64  // inverse bandwidth; 0 means infinite bandwidth
	nextFree   sim.Time // when the wire becomes idle
	busy       sim.Time // cumulative transmission time (for utilisation)
	queued     sim.Time // cumulative queuing delay
	messages   uint64
	bytesMoved uint64
	inj        *fault.Injector // nil when no fault targets this link

	trc     *evtrace.Buffer // nil when event tracing is off
	trcLane string
	trcN    uint64 // adjusted-send counter for sampling

	lastRetry sim.Time // retry delay of the most recent Send
}

// GBps expresses a bandwidth in gigabytes (1e9 bytes) per second.
type GBps float64

// New creates a link. bandwidth <= 0 means the link never queues
// (infinite bandwidth); latency must be non-negative.
func New(name string, bandwidth GBps, latency sim.Time) *Link {
	if latency < 0 {
		panic(fmt.Sprintf("link %s: negative latency %v", name, latency))
	}
	l := &Link{name: name, latency: latency}
	if bandwidth > 0 {
		// bytes/ns = bandwidth (GB/s) / 1e9 * 1e9 ... 1 GB/s = 1 byte/ns
		// = 1e-3 bytes/ps, so ps/byte = 1000 / GBps.
		l.psPerByte = 1000 / float64(bandwidth)
	}
	return l
}

// Name returns the diagnostic name of the link.
func (l *Link) Name() string { return l.name }

// Latency returns the post-serialization propagation latency.
func (l *Link) Latency() sim.Time { return l.latency }

// SetFault installs a fault injector consulted on every Send (nil
// removes it). Flap retries delay the send before it touches the wire;
// degrade events scale the effective latency and inverse bandwidth.
// The retry delay is charged to the message, not counted as queuing —
// it is retrain/backoff cost, reported via the injector's stats.
func (l *Link) SetFault(inj *fault.Injector) { l.inj = inj }

// SetTrace attaches an event-trace buffer (internal/evtrace): sends
// whose timing the fault injector adjusted record sampled spans on the
// given lane, covering arrival to delivery. A nil buffer disables
// recording; recording never alters timing.
func (l *Link) SetTrace(buf *evtrace.Buffer, lane string) {
	l.trc, l.trcLane = buf, lane
}

// Send models transmitting a message of size bytes arriving at the link
// at time now. It returns the time the message is delivered at the far
// end and the queuing delay it suffered waiting for the wire.
//
//starnuma:hotpath one call per message on every traversed channel
func (l *Link) Send(now sim.Time, bytes int) (delivered, queuing sim.Time) {
	if bytes < 0 {
		l.sizePanic(bytes)
	}
	arrived := now
	latency, psPerByte := l.latency, l.psPerByte
	var retry sim.Time
	if l.inj != nil {
		latency, psPerByte, retry = l.inj.Adjust(now, latency, psPerByte)
		now += retry
	}
	l.lastRetry = retry
	start := now
	if l.nextFree > start {
		start = l.nextFree
	}
	queuing = start - now
	serialize := sim.Time(float64(bytes)*psPerByte + 0.5)
	l.nextFree = start + serialize
	l.busy += serialize
	l.queued += queuing
	l.messages++
	l.bytesMoved += uint64(bytes)
	delivered = l.nextFree + latency
	if l.trc.Enabled() && (retry > 0 || latency != l.latency || !stats.SameFloat(psPerByte, l.psPerByte)) {
		l.trcN++
		if l.trcN%faultTraceSample == 1 {
			l.trc.SpanArgs("fault", "adjusted send", l.trcLane, arrived, delivered-arrived,
				evtrace.Arg{Key: "retry_ns", Val: strconv.FormatFloat(retry.Nanos(), 'f', -1, 64)},
				evtrace.Arg{Key: "bytes", Val: strconv.Itoa(bytes)})
		}
	}
	return delivered, queuing
}

// SendBatch models count equal-size messages all arriving at time now,
// charged in one shot. It is exactly equivalent to count sequential
// Send(now, bytes) calls on an un-faulted link: message i is delivered
// at first + i*step, and every counter advances by its closed-form sum.
// ok is false — and nothing is charged — when a fault injector is
// installed, because injector state evolves per message; callers fall
// back to the per-message path.
//
//starnuma:hotpath one call per page-sized transfer (64 packets each)
func (l *Link) SendBatch(now sim.Time, bytes, count int) (first, step sim.Time, ok bool) {
	if l.inj != nil || count <= 0 {
		return 0, 0, false
	}
	if bytes < 0 {
		l.sizePanic(bytes)
	}
	start := now
	if l.nextFree > start {
		start = l.nextFree
	}
	queuing := start - now
	serialize := sim.Time(float64(bytes)*l.psPerByte + 0.5)
	l.nextFree = start + serialize.Scale(count)
	l.busy += serialize.Scale(count)
	// Message 0 queues `queuing`; each later message additionally waits
	// for its predecessors' serialization (the triangular sum).
	l.queued += queuing.Scale(count) + serialize.Scale(count*(count-1)/2)
	l.messages += uint64(count)
	l.bytesMoved += uint64(count) * uint64(bytes)
	return start + serialize + l.latency, serialize, true
}

// sizePanic reports a negative message size. Split out of Send so the
// hot path keeps no fmt reference.
//
//starnuma:coldpath
func (l *Link) sizePanic(bytes int) {
	panic(fmt.Sprintf("link %s: negative message size %d", l.name, bytes))
}

// Stats is a snapshot of a link's lifetime counters.
type Stats struct {
	Name       string
	Messages   uint64
	Bytes      uint64
	BusyTime   sim.Time // total wire-occupied time
	QueuedTime sim.Time // total queuing delay across messages
}

// Stats returns the link's counters.
func (l *Link) Stats() Stats {
	return Stats{Name: l.name, Messages: l.messages, Bytes: l.bytesMoved,
		BusyTime: l.busy, QueuedTime: l.queued}
}

// Utilization returns the fraction of the interval [0, horizon] the wire
// spent transmitting. Returns 0 for a non-positive horizon.
func (l *Link) Utilization(horizon sim.Time) float64 {
	if horizon <= 0 {
		return 0
	}
	return float64(l.busy) / float64(horizon)
}

// LastRetry returns the fault-injector retry delay of the most recent
// Send: the retrain/backoff time that preceded queuing, which Send's
// return values do not break out. The stall-attribution ledger
// (internal/attrib) reads it immediately after each charged Send to
// separate fault-retry time from link queuing and propagation.
func (l *Link) LastRetry() sim.Time { return l.lastRetry }

// Reset clears counters, the wire-busy horizon and the trace-sampling
// counter. Used between timing windows so warm-up traffic does not
// pollute measured statistics, and so a recycled link samples the same
// fault-adjusted sends into its trace as a fresh one.
func (l *Link) Reset() {
	l.nextFree = 0
	l.busy = 0
	l.queued = 0
	l.messages = 0
	l.bytesMoved = 0
	l.lastRetry = 0
	l.trcN = 0
}
