package serve

import (
	"container/list"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Cache is the content-addressed answer cache: an LRU, byte-budgeted
// in-memory tier with an optional disk tier underneath. Entries are
// keyed by the bare hex SHA-256 of the canonical cell key; the value
// is the exact response body served for that key, so a hit replays the
// cold-run bytes verbatim.
//
// Disk layout (when a directory is configured): one file per entry,
// named <hash>.json, containing the Envelope — the canonical key
// string, the body, and the body's own SHA-256 (WriteEnvelope,
// ReadEnvelope). Writes are atomic (temp file + rename in the same
// directory, no fsync), loads verify both hashes and reject anything
// corrupt or misnamed, and eviction only trims the memory tier: the
// disk tier keeps every answer ever computed and re-promotes on demand.
type Cache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	ll       *list.List // front = most recently used
	items    map[string]*list.Element

	dir string // "" = memory only

	hits, diskHits, misses, evictions, puts uint64
}

// cacheEntry is one resident answer.
type cacheEntry struct {
	hash      string
	canonical string
	body      []byte
}

func (e *cacheEntry) size() int64 { return int64(len(e.body) + len(e.canonical) + len(e.hash)) }

// Envelope is the on-disk form of one verified entry, shared by this
// cache's disk tier and the sweep checkpoint store: the file
// <HashHex(Key)>.json holds it.
type Envelope struct {
	// Key is the canonical cell key string; its SHA-256 must equal the
	// file's name stem.
	Key string `json:"key"`
	// BodySHA256 is the hex SHA-256 of Body, detecting torn or
	// bit-rotted payloads independently of the file name.
	BodySHA256 string `json:"body_sha256"`
	// Body is the stored payload (a response body, a sweep row).
	Body json.RawMessage `json:"body"`
}

// ReadEnvelope loads the envelope file named hash in dir and verifies
// both content addresses: the file name is the key's hash, and the
// recorded digest is the body's. Anything unreadable, empty, corrupt or
// misnamed is ok = false.
func ReadEnvelope(dir, hash string) (Envelope, bool) {
	var env Envelope
	data, err := os.ReadFile(filepath.Join(dir, hash+".json"))
	if err != nil || json.Unmarshal(data, &env) != nil || env.Key == "" || len(env.Body) == 0 {
		return Envelope{}, false
	}
	if HashHex(env.Key) != hash || HashHex(string(env.Body)) != env.BodySHA256 {
		return Envelope{}, false
	}
	return env, true
}

// WriteEnvelope writes body's envelope under the canonical key into
// dir atomically: marshal to a temp file in dir, then rename onto the
// final name, so a crash can leave a stale *.tmp file but never a torn
// envelope. There is no fsync: a written envelope survives the death of
// the process, not necessarily a power loss (ReadEnvelope then rejects
// a torn file). Errors are prefixed with the key's hash.
func WriteEnvelope(dir, canonical string, body []byte) error {
	hash := HashHex(canonical)
	data, err := json.Marshal(Envelope{Key: canonical, BodySHA256: HashHex(string(body)), Body: body})
	if err != nil {
		return fmt.Errorf("%s: %v", hash, err)
	}
	tmp, err := os.CreateTemp(dir, "envelope-*.tmp")
	if err != nil {
		return fmt.Errorf("%s: %v", hash, err)
	}
	name := tmp.Name()
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(name, filepath.Join(dir, hash+".json"))
	}
	if err != nil {
		os.Remove(name)
		return fmt.Errorf("%s: %v", hash, err)
	}
	return nil
}

// CacheStats is a point-in-time snapshot for fet.health and /metrics.
type CacheStats struct {
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
	MaxBytes  int64  `json:"max_bytes"`
	Hits      uint64 `json:"hits"`
	DiskHits  uint64 `json:"disk_hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Puts      uint64 `json:"puts"`
	Persisted bool   `json:"persisted"`
}

// NewCache returns a cache bounded to maxBytes of resident answers
// (≤ 0 selects the 64 MiB default). When dir is non-empty it is
// created if needed and every existing well-formed entry is loaded
// (most recently modified first) until the memory budget is full;
// corrupt or misnamed entries are counted and skipped, never trusted.
// The second return value is the number of rejected entries.
func NewCache(maxBytes int64, dir string) (*Cache, int, error) {
	if maxBytes <= 0 {
		maxBytes = 64 << 20
	}
	c := &Cache{maxBytes: maxBytes, ll: list.New(), items: map[string]*list.Element{}, dir: dir}
	if dir == "" {
		return c, 0, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, fmt.Errorf("serve: cache dir: %v", err)
	}
	rejected, err := c.loadDir()
	if err != nil {
		return nil, 0, err
	}
	return c, rejected, nil
}

// loadDir boots the memory tier from the disk tier.
func (c *Cache) loadDir() (rejected int, err error) {
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return 0, fmt.Errorf("serve: cache dir: %v", err)
	}
	type candidate struct {
		name  string
		mtime int64
	}
	var files []candidate
	for _, de := range entries {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".json") {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		files = append(files, candidate{de.Name(), info.ModTime().UnixNano()})
	}
	// Newest first: when the directory outgrows the memory budget, the
	// hottest (most recently written) answers stay resident.
	sort.Slice(files, func(i, j int) bool { return files[i].mtime > files[j].mtime })
	for _, f := range files {
		entry, ok := c.readEntry(strings.TrimSuffix(f.name, ".json"))
		if !ok {
			rejected++
			continue
		}
		c.mu.Lock()
		if c.bytes+entry.size() > c.maxBytes {
			c.mu.Unlock()
			break // older entries stay on disk, served via the disk tier
		}
		c.insertLocked(entry)
		c.mu.Unlock()
	}
	return rejected, nil
}

// readEntry loads and verifies one disk entry.
func (c *Cache) readEntry(hash string) (*cacheEntry, bool) {
	env, ok := ReadEnvelope(c.dir, hash)
	if !ok {
		return nil, false
	}
	return &cacheEntry{hash: hash, canonical: env.Key, body: env.Body}, true
}

// insertLocked adds entry to the memory tier (caller holds mu) and
// evicts from the LRU tail to fit the budget.
func (c *Cache) insertLocked(entry *cacheEntry) {
	if el, ok := c.items[entry.hash]; ok {
		c.ll.MoveToFront(el)
		return
	}
	c.items[entry.hash] = c.ll.PushFront(entry)
	c.bytes += entry.size()
	for c.bytes > c.maxBytes && c.ll.Len() > 1 {
		tail := c.ll.Back()
		te := tail.Value.(*cacheEntry)
		c.ll.Remove(tail)
		delete(c.items, te.hash)
		c.bytes -= te.size()
		c.evictions++
	}
}

// Get returns the cached body for a bare hex key hash, consulting the
// memory tier then the disk tier (a disk hit is re-verified and
// promoted). The returned slice must not be modified.
func (c *Cache) Get(hash string) ([]byte, bool) {
	c.mu.Lock()
	if el, ok := c.items[hash]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		body := el.Value.(*cacheEntry).body
		c.mu.Unlock()
		return body, true
	}
	c.mu.Unlock()
	if c.dir != "" {
		if entry, ok := c.readEntry(hash); ok {
			c.mu.Lock()
			c.insertLocked(entry)
			c.diskHits++
			c.mu.Unlock()
			return entry.body, true
		}
	}
	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
	return nil, false
}

// Put stores the answer body for a canonical key string, evicting LRU
// entries beyond the byte budget, and persists it to the disk tier
// when one is configured. Identical re-puts are idempotent.
func (c *Cache) Put(canonical string, body []byte) error {
	entry := &cacheEntry{hash: HashHex(canonical), canonical: canonical, body: body}
	c.mu.Lock()
	c.insertLocked(entry)
	c.puts++
	c.mu.Unlock()
	if c.dir == "" {
		return nil
	}
	return c.persist(entry)
}

// persist writes one entry to the disk tier (WriteEnvelope).
func (c *Cache) persist(entry *cacheEntry) error {
	if err := WriteEnvelope(c.dir, entry.canonical, entry.body); err != nil {
		return fmt.Errorf("serve: persisting %v", err)
	}
	return nil
}

// Contains is a side-effect-free cache peek (no LRU touch, no counter
// bump): membership in the memory tier, or a verified disk entry.
func (c *Cache) Contains(hash string) bool {
	c.mu.Lock()
	_, ok := c.items[hash]
	c.mu.Unlock()
	if ok {
		return true
	}
	if c.dir == "" {
		return false
	}
	_, ok = c.readEntry(hash)
	return ok
}

// Stats returns a point-in-time snapshot.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:   c.ll.Len(),
		Bytes:     c.bytes,
		MaxBytes:  c.maxBytes,
		Hits:      c.hits,
		DiskHits:  c.diskHits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Puts:      c.puts,
		Persisted: c.dir != "",
	}
}
