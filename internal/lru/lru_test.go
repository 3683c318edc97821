package lru

import (
	"sync"
	"testing"
)

func byLen(s string) int64 { return int64(len(s)) }

func TestEvictsLeastRecentlyUsed(t *testing.T) {
	m := New[int](10, byLen)
	m.Put(1, "aaaa")
	m.Put(2, "bbbb")
	if _, ok := m.Get(1); !ok { // 2 is now the oldest
		t.Fatal("1 not resident")
	}
	m.Put(3, "cccc")
	if _, ok := m.Get(2); ok {
		t.Error("2 survived although it was least recently used")
	}
	for _, k := range []int{1, 3} {
		if _, ok := m.Get(k); !ok {
			t.Errorf("%d evicted", k)
		}
	}
	want := Stats{Hits: 3, Misses: 1, Evictions: 1, ResidentBytes: 8}
	if got := m.Stats(); got != want {
		t.Errorf("stats = %+v, want %+v", got, want)
	}
}

func TestPutKeepsResidentAndSkipsOversize(t *testing.T) {
	m := New[int](10, byLen)
	m.Put(1, "first")
	m.Put(1, "second")
	if v, _ := m.Get(1); v != "first" {
		t.Errorf("duplicate Put replaced the resident value: %q", v)
	}
	m.Put(2, "elevenbytes")
	if _, ok := m.Get(2); ok {
		t.Error("a value larger than the cap was stored")
	}
	if got := m.Stats(); got.ResidentBytes != 5 || got.Evictions != 0 {
		t.Errorf("stats = %+v", got)
	}
}

func TestDeleteFreesBytesWithoutEvicting(t *testing.T) {
	m := New[int](10, byLen)
	m.Put(1, "aaaa")
	m.Put(2, "bbbbbb")
	m.Delete(1)
	m.Delete(3) // absent: a no-op
	if _, ok := m.Get(1); ok {
		t.Error("entry survived Delete")
	}
	m.Put(3, "cccc") // fits in the freed bytes
	if _, ok := m.Get(2); !ok {
		t.Error("Delete did not free its bytes: 2 was evicted")
	}
	if got := m.Stats(); got.ResidentBytes != 10 || got.Evictions != 0 {
		t.Errorf("stats = %+v", got)
	}
}

func TestResetDropsEntriesKeepsCounters(t *testing.T) {
	m := New[int](10, byLen)
	m.Put(1, "a")
	m.Get(1)
	m.Reset()
	if _, ok := m.Get(1); ok {
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
				if v, ok := m.Get(k); ok && v != "12345678" {
					t.Errorf("key %d holds %q", k, v)
				}
				m.Put(k, "12345678")
			}
		}(g)
	}
	wg.Wait()
	if got := m.Stats(); got.ResidentBytes > 64 || got.ResidentBytes%8 != 0 {
		t.Errorf("resident bytes %d", got.ResidentBytes)
	}
}
