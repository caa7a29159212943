package fleet

import (
	"fmt"
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

func appendResult(dst []byte, r *Result) []byte {
	dst = wire.AppendUvarint(dst, uint64(len(r.Metrics)))
	for _, k := range sortedKeys(r.Metrics) {
		dst = wire.AppendString(dst, k)
		dst = wire.AppendF64Bits(dst, r.Metrics[k])
	}
	dst = wire.AppendUvarint(dst, uint64(len(r.Counters)))
	for _, k := range sortedKeys(r.Counters) {
		dst = wire.AppendString(dst, k)
		dst = wire.AppendU64(dst, r.Counters[k])
	}
	return dst
}

// consumeResult parses a Result, requiring strictly ascending keys (the
// canonical order appendResult writes) so duplicates and shuffled
// re-encodings are rejected rather than silently normalized.
func consumeResult(payload []byte, r *Result) (int, error) {
	*r = Result{}
	nMetrics, off, err := wire.ConsumeUvarint(payload)
	if err != nil {
		return 0, err
	}
	if nMetrics > uint64(len(payload)-off) { // each entry is ≥ 9 bytes
		return 0, fmt.Errorf("%w: %d metrics with %d bytes remaining", wire.ErrTruncated, nMetrics, len(payload)-off)
	}
	var prev string
	for i := uint64(0); i < nMetrics; i++ {
		k, m, err := wire.ConsumeString(payload[off:])
		if err != nil {
			return 0, err
		}
		off += m
		v, m, err := wire.ConsumeF64Bits(payload[off:])
		if err != nil {
			return 0, err
		}
		off += m
		if i > 0 && k <= prev {
			return 0, fmt.Errorf("%w: metric key %q out of order after %q", wire.ErrMalformed, k, prev)
		}
		prev = k
		if r.Metrics == nil {
			r.Metrics = make(map[string]float64, nMetrics)
		}
		r.Metrics[k] = v
	}
	nCounters, m, err := wire.ConsumeUvarint(payload[off:])
	if err != nil {
		return 0, err
	}
	off += m
	if nCounters > uint64(len(payload)-off) {
		return 0, fmt.Errorf("%w: %d counters with %d bytes remaining", wire.ErrTruncated, nCounters, len(payload)-off)
	}
	prev = ""
	for i := uint64(0); i < nCounters; i++ {
		k, m, err := wire.ConsumeString(payload[off:])
		if err != nil {
			return 0, err
		}
		off += m
		v, m, err := wire.ConsumeU64(payload[off:])
		if err != nil {
			return 0, err
		}
		off += m
		if i > 0 && k <= prev {
			return 0, fmt.Errorf("%w: counter key %q out of order after %q", wire.ErrMalformed, k, prev)
		}
		prev = k
		if r.Counters == nil {
			r.Counters = make(map[string]uint64, nCounters)
		}
		r.Counters[k] = v
	}
	return off, nil
}

// AppendJobOutcome appends o as one JOC1 frame.
func AppendJobOutcome(dst []byte, o *JobOutcome) []byte {
	start := len(dst)
	dst = wire.BeginFrame(dst, wire.TagJobOutcome)
	dst = wire.AppendVarint(dst, int64(o.Index))
	dst = wire.AppendString(dst, o.Name)
	dst = wire.AppendU64(dst, o.Seed)
	dst = wire.AppendUvarint(dst, uint64(o.Status))
	dst = appendResult(dst, &o.Result)
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
	*o = JobOutcome{}
	idx, off, err := wire.ConsumeVarint(payload)
	if err != nil {
		return 0, err
	}
	name, m, err := wire.ConsumeString(payload[off:])
	if err != nil {
		return 0, err
	}
	off += m
	seed, m, err := wire.ConsumeU64(payload[off:])
	if err != nil {
		return 0, err
	}
	off += m
	o.JobInfo = JobInfo{Index: int(idx), Name: name, Seed: seed}
	status, m, err := wire.ConsumeUvarint(payload[off:])
	if err != nil {
		return 0, err
	}
	off += m
	if status > uint64(StatusCancelled) {
		return 0, fmt.Errorf("%w: job status %d out of range", wire.ErrMalformed, status)
	}
	o.Status = Status(status)
	m, err = consumeResult(payload[off:], &o.Result)
	if err != nil {
		return 0, err
	}
	off += m
	errText, m, err := wire.ConsumeString(payload[off:])
	if err != nil {
		return 0, err
	}
	off += m
	o.Err = errText
	elapsed, m, err := wire.ConsumeVarint(payload[off:])
	if err != nil {
		return 0, err
	}
	off += m
	o.Elapsed = time.Duration(elapsed)
	if off != len(payload) {
		return 0, fmt.Errorf("%w: %d trailing bytes in job outcome", wire.ErrMalformed, len(payload)-off)
	}
	return n, nil
}
