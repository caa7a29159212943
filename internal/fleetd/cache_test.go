package fleetd

import (
	"context"
	"fmt"
	"testing"

	"repro/arachnet"
	"repro/internal/fleet"
)

// TestCanonicalSpecIgnoresFormatting pins the canonicalization
// contract: field order and whitespace never affect the cache key.
func TestCanonicalSpecIgnoresFormatting(t *testing.T) {
	a := []byte(`{"seed": 7, "vehicles": [{"name": "v", "pattern": "c1", "slots": 1000}]}`)
	b := []byte(`{
		"vehicles": [ {"slots":1000,"pattern":"c1","name":"v"} ],
		"seed":7
	}`)
	ka, err := CacheKey(a)
	if err != nil {
		t.Fatal(err)
	}
	kb, err := CacheKey(b)
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Errorf("reordered/reformatted spec changed the key:\n%s\n%s", ka, kb)
	}
}

// TestCacheKeySeedSensitive: a differing master seed must miss — the
// run is a pure function of (spec, seed), and the seed lives in the
// spec.
func TestCacheKeySeedSensitive(t *testing.T) {
	k7, err := CacheKey([]byte(`{"seed": 7, "vehicles": [{"name": "v"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	k8, err := CacheKey([]byte(`{"seed": 8, "vehicles": [{"name": "v"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if k7 == k8 {
		t.Error("differing seeds produced the same cache key")
	}
}

// TestCanonicalSpecPreservesBigSeeds guards the number handling: a
// 64-bit seed above 2^53 must survive canonicalization verbatim (a
// float64 round-trip would corrupt it).
func TestCanonicalSpecPreservesBigSeeds(t *testing.T) {
	raw := []byte(`{"seed": 18446744073709551615, "vehicles": [{"name": "v"}]}`)
	canon, err := CanonicalSpec(raw)
	if err != nil {
		t.Fatal(err)
	}
	want := `"seed":18446744073709551615`
	if !containsStr(string(canon), want) {
		t.Errorf("canonical form lost the 64-bit seed: %s", canon)
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestCanonicalSpecRejectsGarbage: invalid JSON and trailing data are
// errors, not silent cache keys.
func TestCanonicalSpecRejectsGarbage(t *testing.T) {
	if _, err := CanonicalSpec([]byte(`{"seed": `)); err == nil {
		t.Error("truncated JSON canonicalized without error")
	}
	if _, err := CanonicalSpec([]byte(`{"seed": 1} trailing`)); err == nil {
		t.Error("trailing data canonicalized without error")
	}
}

// TestCacheHitBitIdentical runs a real fleet, stores its report, and
// checks the cache returns the same object with a bit-identical
// fingerprint.
func TestCacheHitBitIdentical(t *testing.T) {
	spec := []byte(`{"seed": 11, "workers": 2, "vehicles": [{"name": "v", "engine": "slots", "pattern": "c1", "slots": 2000, "replicate": 3}]}`)
	f, err := arachnet.UnmarshalFleetJSON(spec)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	key, err := CacheKey(spec)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(4)
	if _, ok := c.Get(key); ok {
		t.Fatal("empty cache claimed a hit")
	}
	c.Put(key, CacheEntry{Fingerprint: rep.Fingerprint(), Report: rep})
	entry, ok := c.Get(key)
	if !ok {
		t.Fatal("stored report missed")
	}
	if entry.Fingerprint != rep.Fingerprint() {
		t.Errorf("cache fingerprint %s != run fingerprint %s", entry.Fingerprint, rep.Fingerprint())
	}
	if entry.Report.Fingerprint() != rep.Fingerprint() {
		t.Error("cached report re-fingerprints differently")
	}
	if c.Hits() != 1 {
		t.Errorf("hit counter = %d, want 1", c.Hits())
	}
}

// TestCacheEviction pins the LRU policy under a size cap: the least
// recently used entry goes first, and touching an entry protects it.
func TestCacheEviction(t *testing.T) {
	c := NewCache(2)
	put := func(i int) string {
		key := fmt.Sprintf("key-%d", i)
		c.Put(key, CacheEntry{Fingerprint: key, Report: &fleet.Report{}})
		return key
	}
	k0, k1 := put(0), put(1)
	if _, ok := c.Get(k0); !ok { // touch k0: k1 becomes LRU
		t.Fatal("k0 missing before eviction")
	}
	k2 := put(2) // cap 2: evicts k1
	if _, ok := c.Get(k1); ok {
		t.Error("LRU entry survived eviction")
	}
	for _, k := range []string{k0, k2} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("recently used entry %s was evicted", k)
		}
	}
	if c.Len() != 2 {
		t.Errorf("cache len = %d, want 2", c.Len())
	}
	// A disabled cache stores nothing.
	d := NewCache(0)
	d.Put("x", CacheEntry{})
	if d.Len() != 0 {
		t.Error("zero-cap cache stored an entry")
	}
}
