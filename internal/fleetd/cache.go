package fleetd

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// Spec keys. A fleet run is a pure function of its spec and its master
// seed (the determinism regression tests pin exactly this), so the
// daemon answers a re-submitted spec from the job that already ran it,
// without recomputing anything: the fingerprint of a cache hit is
// bit-identical to a fresh run's. The key that indexes those jobs is
// the canonicalized spec (field order and whitespace normalized away)
// plus the effective seed, which the spec itself carries.

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

// CacheKey derives the spec-index key for a raw spec: the hex
// SHA-256 of its canonical form. The master seed is a field of the
// spec, so it is covered by construction; differing seeds always miss.
func CacheKey(raw []byte) (string, error) {
	canon, err := CanonicalSpec(raw)
	if err != nil {
		return "", err
	}
	return canonicalKey(canon), nil
}

// canonicalKey is the spec-index key of a spec already in canonical
// form.
func canonicalKey(canon []byte) string {
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:])
}
