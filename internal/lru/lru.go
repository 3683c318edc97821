// Package lru is the byte-bounded, least-recently-used memo behind the
// simulator's per-process caches: recorded phase streams (workload),
// step-B ingests and step-C windows (core). Each cache supplies its own
// byte cap and size function; the memo does the bookkeeping, and the
// lookup-or-compute rule, once.
package lru

import "sync"

// Memo maps keys to values under a byte cap, dropping least-recently-
// used entries past it. It is safe for concurrent use. Stored values
// are treated as immutable: Do hands back the resident value itself,
// so a caller that mutates what it gets must copy it first.
type Memo[K comparable, V any] struct {
	mu       sync.Mutex
	capBytes int64
	size     func(V) int64
	entries  map[K]*entry[V]
	flights  map[K]*flight[V]
	tick     int64
	stats    Stats
}

type entry[V any] struct {
	v       V
	size    int64
	lastUse int64
}

// flight is one computation in progress; done closes once it has
// ended, with ok set if it returned v.
type flight[V any] struct {
	done chan struct{}
	v    V
	ok   bool
}

// Stats is a snapshot of a memo's counters. Misses count computations
// and Hits the calls served without one: from a resident entry, or by
// joining a computation in progress (a caller whose shared computation
// panicked counts again when it retries). Reset drops entries but
// keeps counting.
type Stats struct {
	Hits, Misses, Evictions int64
	ResidentBytes           int64
}

// New returns an empty memo holding at most capBytes, as measured by
// size, which is called once per stored value.
func New[K comparable, V any](capBytes int64, size func(V) int64) *Memo[K, V] {
	return &Memo[K, V]{capBytes: capBytes, size: size,
		entries: make(map[K]*entry[V]), flights: make(map[K]*flight[V])}
}

// Do returns the value stored under k, calling compute to make it on a
// miss and storing what it returns, evicting least-recently-used
// entries to stay under the cap; a value larger than the cap is
// returned but not stored. compute runs outside the memo's lock, once
// per key at a time: concurrent callers of the same key wait for it
// and share its value, even if the memo drops it meanwhile. If compute
// panics, the panic reaches its caller and the waiters try again.
func (m *Memo[K, V]) Do(k K, compute func() V) V {
	m.mu.Lock()
	for {
		if e := m.entries[k]; e != nil {
			m.stats.Hits++
			m.tick++
			e.lastUse = m.tick
			m.mu.Unlock()
			return e.v
		}
		f := m.flights[k]
		if f == nil {
			break
		}
		m.stats.Hits++
		m.mu.Unlock()
		<-f.done
		if f.ok {
			return f.v
		}
		m.mu.Lock()
	}
	f := &flight[V]{done: make(chan struct{})}
	m.flights[k] = f
	m.stats.Misses++
	m.mu.Unlock()
	defer func() {
		sz := int64(0)
		if f.ok {
			sz = m.size(f.v)
		}
		m.mu.Lock()
		delete(m.flights, k)
		if f.ok && sz <= m.capBytes {
			m.store(k, f.v, sz)
		}
		m.mu.Unlock()
		close(f.done)
	}()
	f.v = compute()
	f.ok = true
	return f.v
}

// store makes v, of sz bytes, k's entry, evicting least-recently-used
// entries to make room. The caller holds m.mu.
func (m *Memo[K, V]) store(k K, v V, sz int64) {
	for m.stats.ResidentBytes+sz > m.capBytes && len(m.entries) > 0 {
		var victim K
		oldest := int64(1<<63 - 1)
		for key, e := range m.entries {
			if e.lastUse < oldest {
				oldest, victim = e.lastUse, key
			}
		}
		m.stats.ResidentBytes -= m.entries[victim].size
		m.stats.Evictions++
		delete(m.entries, victim)
	}
	m.tick++
	m.entries[k] = &entry[V]{v: v, size: sz, lastUse: m.tick}
	m.stats.ResidentBytes += sz
}

// Delete drops the entry stored under k, if any. It is not an
// eviction: the caller knows the value will not be read again. A
// computation of k in progress is not affected, and stores its value
// when it ends.
func (m *Memo[K, V]) Delete(k K) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e := m.entries[k]; e != nil {
		m.stats.ResidentBytes -= e.size
		delete(m.entries, k)
	}
}

// Reset drops every entry. Computations in progress are not affected.
func (m *Memo[K, V]) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.entries = make(map[K]*entry[V])
	m.stats.ResidentBytes = 0
}

// Stats returns the memo's counters.
func (m *Memo[K, V]) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}
