package serve

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testKey(code string) Key {
	return Key{Experiment: "parklot", Seed: 42, Scale: 0.05, Code: code}
}

func TestCacheRoundtrip(t *testing.T) {
	c, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("v1")
	payload := []byte(`{"experiment":"parklot","report":"== parklot ==\n"}`)
	if _, ok := c.Get(k); ok {
		t.Fatal("hit on an empty cache")
	}
	if err := c.Put(k, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(k)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = (%q, %v), want stored payload", got, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Writes != 1 || st.Corrupt != 0 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / 1 write", st)
	}
}

func TestCacheKeyIsolation(t *testing.T) {
	c, _ := NewCache(t.TempDir())
	k := testKey("v1")
	c.Put(k, []byte("result-v1"))
	// Any field change — including only the code version — must miss.
	for name, other := range map[string]Key{
		"code":  {Experiment: k.Experiment, Seed: k.Seed, Scale: k.Scale, Code: "v2"},
		"seed":  {Experiment: k.Experiment, Seed: 43, Scale: k.Scale, Code: k.Code},
		"scale": {Experiment: k.Experiment, Seed: k.Seed, Scale: 0.06, Code: k.Code},
		"exp":   {Experiment: "theory", Seed: k.Seed, Scale: k.Scale, Code: k.Code},
	} {
		if _, ok := c.Get(other); ok {
			t.Errorf("%s-differing key hit the cache", name)
		}
	}
}

// corruptEntry mutates the single cache file under dir with fn.
func corruptEntry(t *testing.T, dir string, fn func([]byte) []byte) {
	t.Helper()
	var path string
	filepath.Walk(dir, func(p string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && strings.HasSuffix(p, ".rep") {
			path = p
		}
		return nil
	})
	if path == "" {
		t.Fatal("no cache entry on disk")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, fn(raw), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCacheTruncationDetected(t *testing.T) {
	dir := t.TempDir()
	c, _ := NewCache(dir)
	k := testKey("v1")
	payload := []byte("a perfectly good result line with some length to it")
	c.Put(k, payload)
	corruptEntry(t, dir, func(raw []byte) []byte { return raw[:len(raw)-7] })

	if _, ok := c.Get(k); ok {
		t.Fatal("truncated entry served as a hit")
	}
	if st := c.Stats(); st.Corrupt != 1 {
		t.Errorf("Corrupt = %d, want 1", st.Corrupt)
	}
	// The corrupt file must be gone so the recompute path can repopulate.
	if _, ok := c.Get(k); ok {
		t.Fatal("corrupt entry still present after detection")
	}
	if err := c.Put(k, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(k)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatal("recomputed entry does not round-trip")
	}
}

func TestCacheBitFlipDetected(t *testing.T) {
	dir := t.TempDir()
	c, _ := NewCache(dir)
	k := testKey("v1")
	c.Put(k, []byte("bytes whose integrity matters"))
	corruptEntry(t, dir, func(raw []byte) []byte {
		flipped := append([]byte(nil), raw...)
		flipped[len(flipped)-3] ^= 0x40 // flip one payload bit
		return flipped
	})
	if _, ok := c.Get(k); ok {
		t.Fatal("bit-flipped entry served as a hit")
	}
	if st := c.Stats(); st.Corrupt != 1 {
		t.Errorf("Corrupt = %d, want 1", st.Corrupt)
	}
}

func TestCacheGarbageMetaDetected(t *testing.T) {
	dir := t.TempDir()
	c, _ := NewCache(dir)
	k := testKey("v1")
	c.Put(k, []byte("payload"))
	corruptEntry(t, dir, func(raw []byte) []byte { return append([]byte("not json"), raw...) })
	if _, ok := c.Get(k); ok {
		t.Fatal("garbage-meta entry served as a hit")
	}
}

func TestCachePoison(t *testing.T) {
	c, _ := NewCache(t.TempDir())
	k := testKey("v1")
	c.Put(k, []byte("soon to be distrusted"))
	c.Poison(k)
	if _, ok := c.Get(k); ok {
		t.Fatal("poisoned entry served as a hit")
	}
	if st := c.Stats(); st.Poisoned != 1 {
		t.Errorf("Poisoned = %d, want 1", st.Poisoned)
	}
	// Poisoning an absent key is a no-op, not a counter bump.
	c.Poison(testKey("v2"))
	if st := c.Stats(); st.Poisoned != 1 {
		t.Errorf("Poisoned = %d after no-op poison, want 1", st.Poisoned)
	}
}

func TestLedgerRingWraps(t *testing.T) {
	l := NewLedger(3)
	for i := 0; i < 5; i++ {
		l.Record(Key{Experiment: "e", Seed: int64(i)}, errSeed(i))
	}
	recs, total := l.Snapshot()
	if total != 5 || len(recs) != 3 {
		t.Fatalf("snapshot = %d records / %d total, want 3 / 5", len(recs), total)
	}
	for i, r := range recs {
		if want := int64(i + 2); r.Seed != want { // oldest retained is #2
			t.Errorf("recs[%d].Seed = %d, want %d", i, r.Seed, want)
		}
	}
}

type seedErr int

func (e seedErr) Error() string { return "failure" }
func errSeed(i int) error       { return seedErr(i) }
