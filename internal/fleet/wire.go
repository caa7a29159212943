package fleet

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/wire"
)

// Binary wire codec (internal/wire format, DESIGN.md §11) for the job
// outcome (JOC1) the fleetd checkpoint store persists. It uses fixed
// field order rather than a presence bitmap — an envelope record, not
// a hot-path trace event — and encodes Result maps in strictly
// ascending key order, so the encoding is canonical: byte-identical
// bytes in means byte-identical bytes out, which is what lets
// checkpoint CRCs and fingerprints survive a round trip through the
// binary store.

// sortedKeys returns m's keys in ascending order (the canonical wire
// order; also the order the deterministic fingerprint walks).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// appendSorted appends a counted map in ascending key order, each
// value written by appendValue.
func appendSorted[V any](dst []byte, m map[string]V, appendValue func([]byte, V) []byte) []byte {
	dst = wire.AppendUvarint(dst, uint64(len(m)))
	for _, k := range sortedKeys(m) {
		dst = wire.AppendString(dst, k)
		dst = appendValue(dst, m[k])
	}
	return dst
}

// readSorted reads a map appendSorted wrote with 8-byte values, each
// converted from its little-endian bits by fromBits (which, unlike a
// reader taking d, keeps the decoder off the heap). Keys must be
// strictly ascending, so duplicates and shuffled re-encodings are
// rejected rather than silently normalized.
func readSorted[V any](d *wire.Decoder, field string, fromBits func(uint64) V) map[string]V {
	var m map[string]V
	var prev string
	// An entry is at least 9 bytes: a key length and an 8-byte value.
	for i, n := 0, d.Count(9); i < n && d.Err() == nil; i++ {
		k, v := d.Str(), fromBits(d.U64())
		if i > 0 && k <= prev {
			d.Fail(fmt.Errorf("%w: %s key %q out of order after %q", wire.ErrMalformed, field, k, prev))
		}
		if m == nil {
			m = make(map[string]V)
		}
		m[k], prev = v, k
	}
	return m
}

// AppendJobOutcome appends o as one JOC1 frame.
func AppendJobOutcome(dst []byte, o *JobOutcome) []byte {
	start := len(dst)
	dst = wire.BeginFrame(dst, wire.TagJobOutcome)
	dst = wire.AppendVarint(dst, int64(o.Index))
	dst = wire.AppendString(dst, o.Name)
	dst = wire.AppendU64(dst, o.Seed)
	dst = wire.AppendUvarint(dst, uint64(o.Status))
	dst = appendSorted(dst, o.Result.Metrics, wire.AppendF64Bits)
	dst = appendSorted(dst, o.Result.Counters, wire.AppendU64)
	dst = wire.AppendString(dst, o.Err)
	dst = wire.AppendVarint(dst, int64(o.Elapsed))
	return wire.EndFrame(dst, start)
}

// UnmarshalJobOutcome parses a JOC1 frame from the front of buf into o
// (overwriting it completely) and returns the bytes consumed. Hostile
// input returns wire-sentinel errors; it never panics.
func UnmarshalJobOutcome(buf []byte, o *JobOutcome) (int, error) {
	tag, payload, n, err := wire.ConsumeFrame(buf)
	if err != nil {
		return 0, err
	}
	if tag != wire.TagJobOutcome {
		return 0, fmt.Errorf("%w: %s, want %s", wire.ErrUnknownTag, tag, wire.TagJobOutcome)
	}
	d := wire.NewDecoder(payload)
	*o = JobOutcome{}
	o.Index = int(d.Varint())
	o.Name = d.Str()
	o.Seed = d.U64()
	status := d.Uvarint()
	if status > uint64(StatusCancelled) {
		d.Fail(fmt.Errorf("%w: job status %d out of range", wire.ErrMalformed, status))
	}
	o.Status = Status(status)
	o.Result.Metrics = readSorted(&d, "metric", math.Float64frombits)
	o.Result.Counters = readSorted(&d, "counter", func(u uint64) uint64 { return u })
	o.Err = d.Str()
	o.Elapsed = time.Duration(d.Varint())
	if err := d.Finish("job outcome"); err != nil {
		return 0, err
	}
	return n, nil
}
