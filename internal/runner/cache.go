package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"starnuma/internal/core"
	"starnuma/internal/workload"
)

// SchemaVersion is the result-cache schema/code version. It is part of
// the content key AND embedded in every entry, so bumping it orphans
// all previous entries (they simply stop being addressed) and a stale
// or hand-copied file whose embedded version mismatches is ignored.
// Bump it whenever a model change alters simulation results without
// changing any configuration struct.
const SchemaVersion = "starnuma-results-v4"

// DefaultCacheDir is where CLIs persist results by default.
const DefaultCacheDir = ".starnuma-cache"

// cacheEntry is the on-disk JSON envelope of one cached result.
type cacheEntry struct {
	Version string       `json:"version"`
	Key     string       `json:"key"`
	Result  *core.Result `json:"result"`
}

// resultCache is a content-addressed store of simulation results under
// one directory: filename = SHA-256 of the canonical JSON encoding of
// (version, SystemConfig, SimConfig, workload.Spec). All configuration
// structs have exported fields only, so the encoding captures every
// knob that can influence a result; anything else (code behaviour) is
// covered by the version string.
type resultCache struct {
	dir     string
	version string
}

func newResultCache(dir, version string) *resultCache {
	if version == "" {
		version = SchemaVersion
	}
	return &resultCache{dir: dir, version: version}
}

// key returns the content hash addressing (sys, cfg, spec) under the
// cache's version.
func (c *resultCache) key(sys core.SystemConfig, cfg core.SimConfig, spec workload.Spec) (string, error) {
	payload := struct {
		Version string
		Sys     core.SystemConfig
		Cfg     core.SimConfig
		Spec    workload.Spec
	}{c.version, sys, cfg, spec}
	b, err := json.Marshal(payload)
	if err != nil {
		return "", fmt.Errorf("runner: cache key: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

func (c *resultCache) path(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// load returns the cached result for key, or ok=false on any miss:
// absent file, unreadable/corrupt/truncated JSON, or an entry whose
// embedded version or key disagrees. A bad entry is never an error —
// the caller recomputes and overwrites it.
func (c *resultCache) load(key string) (*core.Result, bool) {
	b, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil, false
	}
	var e cacheEntry
	if err := json.Unmarshal(b, &e); err != nil {
		return nil, false
	}
	if e.Version != c.version || e.Key != key || e.Result == nil {
		return nil, false
	}
	return e.Result, true
}

// store persists res under key, atomically (write temp file + rename)
// so a concurrent reader never observes a truncated entry.
func (c *resultCache) store(key string, res *core.Result) error {
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return fmt.Errorf("runner: cache dir: %w", err)
	}
	b, err := json.Marshal(cacheEntry{Version: c.version, Key: key, Result: res})
	if err != nil {
		return fmt.Errorf("runner: cache encode: %w", err)
	}
	tmp, err := os.CreateTemp(c.dir, "tmp-*.json")
	if err != nil {
		return fmt.Errorf("runner: cache write: %w", err)
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("runner: cache write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("runner: cache write: %w", err)
	}
	if err := os.Rename(tmp.Name(), c.path(key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("runner: cache write: %w", err)
	}
	return nil
}
