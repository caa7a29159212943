package fleetd

import (
	"context"
	"testing"
	"time"

	"repro/arachnet"
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

// TestCacheHitBitIdentical runs a real fleet through a daemon,
// resubmits its spec, and checks the hit answers with the same report
// object and a fingerprint bit-identical to a batch run's.
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
	s, c := startServer(t, Config{})
	ctx := context.Background()
	first, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first submission of a spec claimed a hit")
	}
	if _, err := c.Wait(ctx, first.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	hit, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached {
		t.Fatal("resubmitted finished spec missed")
	}
	if hit.Fingerprint != rep.Fingerprint() {
		t.Errorf("hit fingerprint %s != run fingerprint %s", hit.Fingerprint, rep.Fingerprint())
	}
	s.mu.Lock()
	ran, served := s.jobs[first.ID], s.jobs[hit.ID]
	s.mu.Unlock()
	if served.report != ran.report {
		t.Error("hit holds a copy of the report, not the indexed job's")
	}
	if served.report.Fingerprint() != rep.Fingerprint() {
		t.Error("hit report re-fingerprints differently")
	}
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.CacheHits != 1 || h.CacheEntries != 1 {
		t.Errorf("health: cache_hits %d, cache_entries %d; want 1 each", h.CacheHits, h.CacheEntries)
	}
}
