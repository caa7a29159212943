package fleetd

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/fleet"
)

// Response cache. A fleet run is a pure function of its spec and its
// master seed (the determinism regression tests pin exactly this), so
// the daemon can return a stored report for a re-submitted spec
// without recomputing anything — the fingerprint of a cache hit is
// bit-identical to a fresh run's. The key is the canonicalized spec
// (field order and whitespace normalized away) plus the effective
// seed, which the spec itself carries.

// CanonicalSpec normalizes a JSON fleet spec: object keys are sorted,
// whitespace is collapsed, and number literals are preserved verbatim
// (no float round-trip, so 64-bit seeds survive). Two specs that
// differ only in formatting or field order canonicalize identically.
func CanonicalSpec(raw []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, fmt.Errorf("fleetd: parse spec: %w", err)
	}
	// Trailing non-whitespace after the document would silently change
	// the key; reject it.
	if dec.More() {
		return nil, fmt.Errorf("fleetd: trailing data after spec document")
	}
	out, err := json.Marshal(v) // map keys marshal sorted; json.Number keeps its text
	if err != nil {
		return nil, fmt.Errorf("fleetd: canonicalize spec: %w", err)
	}
	return out, nil
}

// CacheKey derives the response-cache key for a raw spec: the hex
// SHA-256 of its canonical form. The master seed is a field of the
// spec, so it is covered by construction; differing seeds always miss.
func CacheKey(raw []byte) (string, error) {
	canon, err := CanonicalSpec(raw)
	if err != nil {
		return "", err
	}
	return canonicalKey(canon), nil
}

// canonicalKey is the cache key of a spec already in canonical form.
func canonicalKey(canon []byte) string {
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:])
}

// CacheEntry is one stored response.
type CacheEntry struct {
	Fingerprint string
	Report      *fleet.Report
}

// Cache is a size-capped LRU over completed reports, safe for
// concurrent use by HTTP handlers and job runners.
type Cache struct {
	mu   sync.Mutex
	max  int
	ll   *list.List // front = most recently used; values are *cacheItem
	byID map[string]*list.Element
	hits uint64
}

type cacheItem struct {
	key   string
	entry CacheEntry
}

// NewCache returns a cache holding at most max entries; max <= 0
// disables storage (every lookup misses).
func NewCache(max int) *Cache {
	return &Cache{max: max, ll: list.New(), byID: make(map[string]*list.Element)}
}

// Get returns the entry for key, marking it most recently used.
func (c *Cache) Get(key string) (CacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byID[key]
	if !ok {
		return CacheEntry{}, false
	}
	c.ll.MoveToFront(el)
	c.hits++
	return el.Value.(*cacheItem).entry, true
}

// Put stores an entry, evicting the least recently used once the cap
// is exceeded. Re-putting an existing key refreshes its entry.
func (c *Cache) Put(key string, e CacheEntry) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byID[key]; ok {
		el.Value.(*cacheItem).entry = e
		c.ll.MoveToFront(el)
		return
	}
	c.byID[key] = c.ll.PushFront(&cacheItem{key: key, entry: e})
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.byID, oldest.Value.(*cacheItem).key)
	}
}

// Len reports the current entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Hits reports the lifetime hit count.
func (c *Cache) Hits() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits
}
