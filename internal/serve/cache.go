// Package serve implements pccserve's serving layer: a crash-safe
// content-addressed result cache, a bounded-admission sweep scheduler, an
// error ledger, and the HTTP server that streams per-unit reports as NDJSON.
package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
)

// Key identifies one sweep unit's result. Every field participates in the
// content address: a change to the code version (or any run parameter)
// misses the cache rather than serving stale bytes.
type Key struct {
	Experiment string  `json:"experiment"`
	Seed       int64   `json:"seed"`
	Scale      float64 `json:"scale"`
	Code       string  `json:"code"`
}

// canonical renders the key as a stable string for hashing. Scale uses the
// shortest round-trip float encoding so 0.05 and 0.050000001 hash apart.
func (k Key) canonical() string {
	return k.Experiment + "|" +
		strconv.FormatInt(k.Seed, 10) + "|" +
		strconv.FormatFloat(k.Scale, 'g', -1, 64) + "|" + k.Code
}

// cacheMeta is the first line of every cache file: the key it was computed
// for plus the payload checksum. A reader that cannot reproduce the checksum
// (truncation, bit rot, torn write) treats the entry as absent.
type cacheMeta struct {
	V      int    `json:"v"`
	Key    Key    `json:"key"`
	SHA256 string `json:"sha256"`
	Size   int    `json:"size"`
}

// CacheStats are monotonic counters exposed on /v1/stats.
type CacheStats struct {
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
	Writes   int64 `json:"writes"`
	Corrupt  int64 `json:"corrupt"`
	Poisoned int64 `json:"poisoned"`
}

// Cache is a crash-safe content-addressed store of sweep-unit result lines.
// Entries are written temp-file + fsync + atomic rename (then directory
// fsync), so a crash mid-write leaves either the old entry or none — never a
// half-written one. Get verifies an embedded checksum and deletes anything
// it cannot verify, so corrupt entries are recomputed instead of served.
type Cache struct {
	dir string

	hits, misses, writes, corrupt, poisoned atomic.Int64
}

// NewCache opens (creating if needed) a cache rooted at dir.
func NewCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: cache dir: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// path shards entries into 256 subdirectories by hash prefix.
func (c *Cache) path(k Key) string {
	sum := sha256.Sum256([]byte(k.canonical()))
	h := hex.EncodeToString(sum[:])
	return filepath.Join(c.dir, h[:2], h+".rep")
}

// Get returns the cached payload for k, or (nil, false) on a miss. Entries
// that fail any integrity check — unparseable meta, key mismatch, short
// payload, checksum mismatch — are removed and reported as misses so the
// caller recomputes them.
func (c *Cache) Get(k Key) ([]byte, bool) {
	p := c.path(k)
	raw, err := os.ReadFile(p)
	if err != nil {
		c.misses.Add(1)
		return nil, false
	}
	payload, ok := verifyEntry(raw, k)
	if !ok {
		c.corrupt.Add(1)
		c.misses.Add(1)
		os.Remove(p)
		return nil, false
	}
	c.hits.Add(1)
	return payload, true
}

// verifyEntry splits a cache file into meta + payload and checks every
// integrity property. Split out (and unexported) so tests can target the
// verification logic with hand-corrupted inputs.
func verifyEntry(raw []byte, k Key) ([]byte, bool) {
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 {
		return nil, false
	}
	var meta cacheMeta
	if err := json.Unmarshal(raw[:nl], &meta); err != nil {
		return nil, false
	}
	if meta.V != 1 || meta.Key != k {
		return nil, false
	}
	payload := raw[nl+1:]
	if len(payload) != meta.Size {
		return nil, false
	}
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != meta.SHA256 {
		return nil, false
	}
	return payload, true
}

// Put stores payload under k. The write is crash-safe: a temp file in the
// final directory is written, fsynced, closed, and atomically renamed into
// place, then the directory itself is fsynced so the rename survives a
// crash. Errors are returned but safe to ignore — a failed Put is just a
// future miss.
func (c *Cache) Put(k Key, payload []byte) error {
	p := c.path(k)
	dir := filepath.Dir(p)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	sum := sha256.Sum256(payload)
	meta, err := json.Marshal(cacheMeta{
		V: 1, Key: k, SHA256: hex.EncodeToString(sum[:]), Size: len(payload),
	})
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op once renamed
	if _, err := tmp.Write(append(append(meta, '\n'), payload...)); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		return err
	}
	syncDir(dir)
	c.writes.Add(1)
	return nil
}

// Poison removes any cached entry for k. Called when a trial under k
// panicked or timed out: whatever bytes may have been cached for that key
// are no longer trusted.
func (c *Cache) Poison(k Key) {
	if err := os.Remove(c.path(k)); err == nil {
		c.poisoned.Add(1)
	}
}

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		Hits:     c.hits.Load(),
		Misses:   c.misses.Load(),
		Writes:   c.writes.Load(),
		Corrupt:  c.corrupt.Load(),
		Poisoned: c.poisoned.Load(),
	}
}

// syncDir fsyncs a directory so a just-renamed entry survives power loss.
// Best-effort: some filesystems reject directory fsync and the rename is
// still atomic on them.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
