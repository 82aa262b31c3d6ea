package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func testKeyN(n int) CellKey {
	k := validKey()
	k.N = n
	return k
}

func TestCacheMemoryHitAndMiss(t *testing.T) {
	c, rejected, err := NewCache(0, "")
	if err != nil || rejected != 0 {
		t.Fatalf("NewCache: %v (rejected %d)", err, rejected)
	}
	key := validKey().Canonical()
	hash := HashHex(key)
	if _, ok := c.Get(hash); ok {
		t.Fatal("hit on empty cache")
	}
	body := []byte(`{"answer":1}`)
	if err := c.Put(key, body); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, ok := c.Get(hash)
	if !ok || !bytes.Equal(got, body) {
		t.Fatalf("Get: %q, %v", got, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Puts != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Persisted {
		t.Fatal("memory-only cache reports Persisted")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// Budget for roughly two entries; the least recently used falls out.
	keys := make([]string, 3)
	bodies := make([][]byte, 3)
	var entryBytes int64
	for i := range keys {
		keys[i] = testKeyN(1024 + i).Canonical()
		bodies[i] = []byte(fmt.Sprintf(`{"cell":%d,"pad":"0123456789abcdef"}`, i))
		entryBytes = int64(len(bodies[i]) + len(keys[i]) + 64)
	}
	c, _, err := NewCache(2*entryBytes+2, "")
	if err != nil {
		t.Fatal(err)
	}
	c.Put(keys[0], bodies[0])
	c.Put(keys[1], bodies[1])
	c.Get(HashHex(keys[0])) // touch 0 so 1 is LRU
	c.Put(keys[2], bodies[2])
	if _, ok := c.Get(HashHex(keys[1])); ok {
		t.Fatal("LRU entry survived past the byte budget")
	}
	for _, i := range []int{0, 2} {
		if _, ok := c.Get(HashHex(keys[i])); !ok {
			t.Fatalf("recently used entry %d was evicted", i)
		}
	}
	if st := c.Stats(); st.Evictions == 0 {
		t.Fatalf("stats show no evictions: %+v", st)
	}
}

func TestCacheDiskPersistAndReload(t *testing.T) {
	dir := t.TempDir()
	key := validKey().Canonical()
	body := []byte(`{"answer":"persisted"}`)
	c1, _, err := NewCache(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Put(key, body); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, HashHex(key)+".json")); err != nil {
		t.Fatalf("persisted file: %v", err)
	}

	c2, rejected, err := NewCache(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	if rejected != 0 {
		t.Fatalf("rejected %d entries on clean reload", rejected)
	}
	got, ok := c2.Get(HashHex(key))
	if !ok || !bytes.Equal(got, body) {
		t.Fatalf("reloaded Get: %q, %v", got, ok)
	}
	if st := c2.Stats(); st.Hits != 1 || !st.Persisted {
		t.Fatalf("reloaded entry not resident: %+v", st)
	}
}

func TestCacheRejectsCorruptDiskEntries(t *testing.T) {
	dir := t.TempDir()
	key := validKey().Canonical()
	good, _, err := NewCache(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	good.Put(key, []byte(`{"ok":true}`))

	// Corrupt 1: valid JSON under a name that is not the key's hash.
	misnamed, _ := json.Marshal(Envelope{Key: key, BodySHA256: HashHex(`{}`), Body: []byte(`{}`)})
	wrongName := HashHex("something else")
	os.WriteFile(filepath.Join(dir, wrongName+".json"), misnamed, 0o644)
	// Corrupt 2: body digest mismatch under the right name.
	k2 := testKeyN(8192).Canonical()
	torn, _ := json.Marshal(Envelope{Key: k2, BodySHA256: HashHex(`other`), Body: []byte(`{"x":1}`)})
	os.WriteFile(filepath.Join(dir, HashHex(k2)+".json"), torn, 0o644)
	// Corrupt 3: not JSON at all.
	k3 := testKeyN(16384).Canonical()
	os.WriteFile(filepath.Join(dir, HashHex(k3)+".json"), []byte("garbage"), 0o644)

	c, rejected, err := NewCache(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	if rejected != 3 {
		t.Fatalf("rejected %d corrupt entries, want 3", rejected)
	}
	if _, ok := c.Get(HashHex(key)); !ok {
		t.Fatal("valid entry lost among corrupt ones")
	}
	for _, h := range []string{wrongName, HashHex(k2), HashHex(k3)} {
		if _, ok := c.Get(h); ok {
			t.Fatalf("corrupt entry %s was served", h)
		}
	}
}

func TestCacheContainsIsSideEffectFree(t *testing.T) {
	c, _, err := NewCache(0, "")
	if err != nil {
		t.Fatal(err)
	}
	key := validKey().Canonical()
	c.Put(key, []byte(`{}`))
	before := c.Stats()
	if !c.Contains(HashHex(key)) {
		t.Fatal("Contains missed a resident entry")
	}
	if c.Contains(HashHex("absent")) {
		t.Fatal("Contains claimed an absent entry")
	}
	after := c.Stats()
	if before.Hits != after.Hits || before.Misses != after.Misses {
		t.Fatalf("Contains mutated counters: %+v → %+v", before, after)
	}
}
