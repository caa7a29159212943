package core

import (
	"strconv"
	"sync"

	"repro/internal/mac"
)

// factorCacheSize bounds the config LRU. Appendix C style sweeps touch
// a handful of (periods, N) configs; 16 keeps every realistic sweep
// fully cached while bounding memory for adversarial callers.
const factorCacheSize = 16

var factorCache = struct {
	sync.Mutex
	entries map[string]*Factorization
	order   []string // LRU order: least recent first
	builds  uint64
	hits    uint64
}{entries: make(map[string]*Factorization)}

// factorKey is the canonical config encoding: the exact period
// sequence (order preserved — it fixes state numbering) plus the NACK
// threshold.
func factorKey(periods []mac.Period, nackThreshold int) string {
	buf := make([]byte, 0, 4*len(periods)+8)
	for _, p := range periods {
		buf = strconv.AppendInt(buf, int64(p), 10)
		buf = append(buf, ',')
	}
	buf = append(buf, '|')
	buf = strconv.AppendInt(buf, int64(nackThreshold), 10)
	return string(buf)
}

// ForConfig returns the shared factorization for (periods,
// nackThreshold), enumerating, verifying and factoring the chain on
// first use and serving an LRU cache afterwards. Monte Carlo sweeps
// that re-derive the analytical expectation per trial hit the cache and
// reuse one factorization (and its memoized solve) instead of
// re-enumerating the chain every time. Build failures are returned and
// not cached. Safe for concurrent use.
//
//alloc:hot sweep-loop cache hit must stay key-build plus map lookup
func ForConfig(periods []mac.Period, nackThreshold int) (*Factorization, error) {
	key := factorKey(periods, nackThreshold)
	factorCache.Lock()
	if f, ok := factorCache.entries[key]; ok {
		factorCache.hits++
		touchKey(key)
		factorCache.Unlock()
		return f, nil
	}
	factorCache.Unlock()

	// Build outside the lock: enumeration is the expensive part and
	// independent configs should not serialize on it. A racing build of
	// the same key is wasted work, not an error — first store wins.
	m, err := NewModel(periods, nackThreshold)
	if err != nil {
		return nil, err
	}
	f, err := m.Factor()
	if err != nil {
		return nil, err
	}

	factorCache.Lock()
	defer factorCache.Unlock()
	if prior, ok := factorCache.entries[key]; ok {
		factorCache.hits++
		touchKey(key)
		return prior, nil
	}
	factorCache.builds++
	factorCache.entries[key] = f
	factorCache.order = append(factorCache.order, key)
	if len(factorCache.order) > factorCacheSize {
		evict := factorCache.order[0]
		factorCache.order = factorCache.order[1:]
		delete(factorCache.entries, evict)
	}
	return f, nil
}

// touchKey moves key to the most-recent end; callers hold the lock.
func touchKey(key string) {
	for i, k := range factorCache.order {
		if k == key {
			copy(factorCache.order[i:], factorCache.order[i+1:])
			factorCache.order[len(factorCache.order)-1] = key
			return
		}
	}
}
