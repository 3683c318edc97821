package lru

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func byLen(s string) int64 { return int64(len(s)) }

// val is a computation that returns s.
func val(s string) func() string { return func() string { return s } }

// resident reports whether k has an entry, without counting a lookup
// or refreshing its recency.
func resident[K comparable, V any](m *Memo[K, V], k K) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.entries[k] != nil
}

// flying reports whether a computation of k is in progress.
func flying[K comparable, V any](m *Memo[K, V], k K) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.flights[k] != nil
}

// mustHit fails the test if Do has to compute k's value.
func mustHit(t *testing.T, m *Memo[int, string], k int) string {
	t.Helper()
	computed := false
	v := m.Do(k, func() string { computed = true; return "" })
	if computed {
		t.Fatalf("%d was not resident", k)
	}
	return v
}

func TestEvictsLeastRecentlyUsed(t *testing.T) {
	m := New[int](10, byLen)
	m.Do(1, val("aaaa"))
	m.Do(2, val("bbbb"))
	mustHit(t, m, 1) // 2 is now the oldest
	m.Do(3, val("cccc"))
	if resident(m, 2) {
		t.Error("2 survived although it was least recently used")
	}
	for _, k := range []int{1, 3} {
		if !resident(m, k) {
			t.Errorf("%d evicted", k)
		}
	}
	want := Stats{Hits: 1, Misses: 3, Evictions: 1, ResidentBytes: 8}
	if got := m.Stats(); got != want {
		t.Errorf("stats = %+v, want %+v", got, want)
	}
}

func TestDoKeepsResidentAndSkipsOversize(t *testing.T) {
	m := New[int](10, byLen)
	if v := m.Do(1, val("first")); v != "first" {
		t.Fatalf("Do returned %q, not what it computed", v)
	}
	if v := m.Do(1, val("second")); v != "first" {
		t.Errorf("a second Do recomputed the resident value: %q", v)
	}
	if v := m.Do(2, val("elevenbytes")); v != "elevenbytes" {
		t.Errorf("an oversize value was not returned: %q", v)
	}
	if resident(m, 2) {
		t.Error("a value larger than the cap was stored")
	}
	if v := m.Do(2, val("again, still oversize")); v != "again, still oversize" {
		t.Errorf("an oversize value was recalled: %q", v)
	}
	if got := m.Stats(); got != (Stats{Hits: 1, Misses: 3, ResidentBytes: 5}) {
		t.Errorf("stats = %+v", got)
	}
}

func TestDeleteFreesBytesWithoutEvicting(t *testing.T) {
	m := New[int](10, byLen)
	m.Do(1, val("aaaa"))
	m.Do(2, val("bbbbbb"))
	m.Delete(1)
	m.Delete(3) // absent: a no-op
	if resident(m, 1) {
		t.Error("entry survived Delete")
	}
	m.Do(3, val("cccc")) // fits in the freed bytes
	if !resident(m, 2) {
		t.Error("Delete did not free its bytes: 2 was evicted")
	}
	if got := m.Stats(); got.ResidentBytes != 10 || got.Evictions != 0 {
		t.Errorf("stats = %+v", got)
	}
}

func TestResetDropsEntriesKeepsCounters(t *testing.T) {
	m := New[int](10, byLen)
	m.Do(1, val("a"))
	mustHit(t, m, 1)
	m.Reset()
	if resident(m, 1) {
		t.Error("entry survived Reset")
	}
	if got := m.Stats(); got != (Stats{Hits: 1, Misses: 1}) {
		t.Errorf("stats = %+v", got)
	}
}

func TestConcurrentUse(t *testing.T) {
	m := New[int](64, byLen)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (g + i) % 40
				if v := m.Do(k, val("12345678")); v != "12345678" {
					t.Errorf("key %d holds %q", k, v)
				}
			}
		}(g)
	}
	wg.Wait()
	if got := m.Stats(); got.ResidentBytes > 64 || got.ResidentBytes%8 != 0 {
		t.Errorf("resident bytes %d", got.ResidentBytes)
	}
}

// Callers that meet on one key share one computation: it waits until
// every other caller has joined it, so none can be served otherwise.
func TestConcurrentCallersShareOneComputation(t *testing.T) {
	const callers = 8
	m := New[int](64, byLen)
	var computations atomic.Int32
	start := make(chan struct{})
	got := make([]string, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i] = m.Do(1, func() string {
				computations.Add(1)
				for m.Stats().Hits < callers-1 {
					runtime.Gosched()
				}
				return "shared"
			})
		}()
	}
	close(start)
	wg.Wait()
	if n := computations.Load(); n != 1 {
		t.Fatalf("%d computations for one key, want 1", n)
	}
	for i, v := range got {
		if v != "shared" {
			t.Errorf("caller %d got %q", i, v)
		}
	}
	if s := m.Stats(); s.Misses != 1 || s.Hits != callers-1 {
		t.Errorf("stats = %+v", s)
	}
}

// A computation that panics hands the panic to its caller; the callers
// waiting on it retry, one computes, and all get its value.
func TestPanickingComputationLetsWaitersRetry(t *testing.T) {
	const waiters = 4
	m := New[int](64, byLen)
	started, fail := make(chan struct{}), make(chan struct{})
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		m.Do(1, func() string {
			close(started)
			<-fail
			panic("compute failed")
		})
	}()
	<-started
	var computations atomic.Int32
	got := make([]string, waiters)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = m.Do(1, func() string { computations.Add(1); return "retried" })
		}()
	}
	for m.Stats().Hits < waiters { // every waiter has joined the flight
		runtime.Gosched()
	}
	close(fail)
	if p := <-panicked; p != "compute failed" {
		t.Fatalf("the caller recovered %v, not its computation's panic", p)
	}
	wg.Wait()
	if n := computations.Load(); n != 1 {
		t.Errorf("%d retried computations, want 1", n)
	}
	for i, v := range got {
		if v != "retried" {
			t.Errorf("waiter %d got %q", i, v)
		}
	}
	if v := mustHit(t, m, 1); v != "retried" || flying(m, 1) {
		t.Errorf("after the retry: %q resident, flight left = %v", v, flying(m, 1))
	}
}

// Deleting a key while it is being computed drops nothing: the
// computation still returns and stores its value.
func TestDeleteDuringComputation(t *testing.T) {
	m := New[int](64, byLen)
	started, finish := make(chan struct{}), make(chan struct{})
	done := make(chan string)
	go func() {
		done <- m.Do(1, func() string { close(started); <-finish; return "value" })
	}()
	<-started
	m.Delete(1)
	if !flying(m, 1) {
		t.Fatal("Delete ended the computation")
	}
	close(finish)
	if v := <-done; v != "value" {
		t.Fatalf("Do returned %q", v)
	}
	if v := mustHit(t, m, 1); v != "value" {
		t.Errorf("resident %q", v)
	}
	if s := m.Stats(); s.ResidentBytes != 5 {
		t.Errorf("stats = %+v", s)
	}
}
