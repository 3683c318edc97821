// Package lru is the byte-bounded, least-recently-used memo behind the
// simulator's per-process caches: recorded phase streams (workload),
// step-B ingests and step-C windows (core). Each cache supplies its own
// byte cap and size function; the memo does the bookkeeping once.
package lru

import "sync"

// Memo maps keys to values under a byte cap, dropping least-recently-
// used entries past it. It is safe for concurrent use. Stored values
// are treated as immutable: Get hands back the resident value itself,
// so a caller that mutates what it gets must copy it first.
type Memo[K comparable, V any] struct {
	mu       sync.Mutex
	capBytes int64
	size     func(V) int64
	entries  map[K]*entry[V]
	tick     int64
	stats    Stats
}

type entry[V any] struct {
	v       V
	size    int64
	lastUse int64
}

// Stats is a snapshot of a memo's counters. Reset drops entries but
// keeps counting.
type Stats struct {
	Hits, Misses, Evictions int64
	ResidentBytes           int64
}

// New returns an empty memo holding at most capBytes, as measured by
// size, which is called once per stored value.
func New[K comparable, V any](capBytes int64, size func(V) int64) *Memo[K, V] {
	return &Memo[K, V]{capBytes: capBytes, size: size}
}

// Get returns the value stored under k and counts a hit or a miss.
func (m *Memo[K, V]) Get(k K) (V, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.entries[k]
	if e == nil {
		m.stats.Misses++
		var zero V
		return zero, false
	}
	m.stats.Hits++
	m.tick++
	e.lastUse = m.tick
	return e.v, true
}

// Put stores v under k, evicting least-recently-used entries to stay
// under the cap. A value larger than the cap is not stored, and a key
// already resident keeps its value: a concurrent caller computed the
// same thing first.
func (m *Memo[K, V]) Put(k K, v V) {
	sz := m.size(v)
	if sz > m.capBytes {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.entries == nil {
		m.entries = make(map[K]*entry[V])
	}
	if _, dup := m.entries[k]; dup {
		return
	}
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
// eviction: the caller knows the value will not be read again.
func (m *Memo[K, V]) Delete(k K) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e := m.entries[k]; e != nil {
		m.stats.ResidentBytes -= e.size
		delete(m.entries, k)
	}
}

// Reset drops every entry.
func (m *Memo[K, V]) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.entries = nil
	m.stats.ResidentBytes = 0
}

// Stats returns the memo's counters.
func (m *Memo[K, V]) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}
