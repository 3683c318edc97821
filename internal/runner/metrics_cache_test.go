package runner

import (
	"reflect"
	"testing"

	"starnuma/internal/core"
)

// TestCachePreservesMetrics: an instrumented result survives the
// content-addressed cache byte for byte — a cache hit reproduces the
// exact metrics snapshot and stall profile the cold run collected.
func TestCachePreservesMetrics(t *testing.T) {
	dir := t.TempDir()
	sys := core.StarNUMASystem()
	cfg := tinySim()
	cfg.Policy = core.PolicyStarNUMA
	cfg.Instrument = true
	spec := tinySpec(t, "BFS")

	cold := New(Config{Jobs: 2, CacheDir: dir})
	want, err := cold.Run("t/BFS", sys, cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if want.Metrics.Empty() || want.Profile == nil {
		t.Fatal("cold run collected no metrics or no stall profile")
	}

	warm := New(Config{Jobs: 2, CacheDir: dir})
	got, err := warm.Run("t/BFS", sys, cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Metrics().CacheHits != 1 {
		t.Fatalf("expected a cache hit, metrics %+v", warm.Metrics())
	}
	if !reflect.DeepEqual(want.Metrics, got.Metrics) {
		t.Errorf("metrics changed across the cache:\nwant %s\ngot  %s",
			want.Metrics.Dump(), got.Metrics.Dump())
	}
	if !reflect.DeepEqual(want.Profile, got.Profile) {
		t.Error("stall profile changed across the cache")
	}
}

// TestCacheKeySeparatesMetricsFlag: Instrument participates in the
// cache key, so an uninstrumented run never serves a stale instrumented
// entry or vice versa.
func TestCacheKeySeparatesMetricsFlag(t *testing.T) {
	c := newResultCache(t.TempDir(), "")
	sys := core.StarNUMASystem()
	cfg := tinySim()
	spec := tinySpec(t, "BFS")

	off, err := c.key(sys, cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Instrument = true
	on, err := c.key(sys, cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if off == on {
		t.Error("cache key ignores Instrument")
	}
}
