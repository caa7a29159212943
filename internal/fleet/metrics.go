package fleet

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
)

// Distribution summarizes one metric's per-job samples fleet-wide.
// All statistics, including the mean, are computed over the sorted
// sample multiset, so a Distribution is a pure function of the sample
// values — independent of completion order.
type Distribution struct {
	Count int     `json:"count"`
	Sum   float64 `json:"sum"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	P25   float64 `json:"p25"`
	P50   float64 `json:"p50"`
	P75   float64 `json:"p75"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// NewDistribution aggregates samples; the zero Distribution is
// returned for an empty slice.
func NewDistribution(samples []float64) Distribution {
	if len(samples) == 0 {
		return Distribution{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	q := func(p float64) float64 { return s[int(p*float64(len(s)-1))] }
	var sum float64
	for _, v := range s {
		sum += v
	}
	return Distribution{
		Count: len(s), Sum: sum, Mean: sum / float64(len(s)),
		Min: s[0], P25: q(0.25), P50: q(0.5), P75: q(0.75),
		P90: q(0.90), P99: q(0.99), Max: s[len(s)-1],
	}
}

// String renders the headline statistics.
func (d Distribution) String() string {
	return fmt.Sprintf("n=%d mean=%.3g p50=%.3g p90=%.3g p99=%.3g min=%.3g max=%.3g",
		d.Count, d.Mean, d.P50, d.P90, d.P99, d.Min, d.Max)
}

// Fingerprint hashes everything deterministic about the report — job
// identities, statuses, errors, per-job metrics and counters, and the
// fleet-wide aggregates — and excludes all wall-clock fields. Two runs
// of the same fleet spec must produce the same fingerprint regardless
// of worker count; the determinism regression tests assert exactly
// that.
func (r *Report) Fingerprint() string {
	h := fnv.New64a()
	buf := make([]byte, 8)
	wu := func(v uint64) {
		binary.LittleEndian.PutUint64(buf, v)
		h.Write(buf)
	}
	ws := func(s string) {
		wu(uint64(len(s)))
		h.Write([]byte(s))
	}
	wf := func(v float64) { wu(math.Float64bits(v)) }
	wdist := func(d Distribution) {
		wu(uint64(d.Count))
		for _, v := range []float64{d.Sum, d.Mean, d.Min, d.P25, d.P50, d.P75, d.P90, d.P99, d.Max} {
			wf(v)
		}
	}
	wu(uint64(len(r.Jobs)))
	for _, j := range r.Jobs {
		wu(uint64(j.Index))
		ws(j.Name)
		wu(j.Seed)
		wu(uint64(j.Status))
		ws(j.Err)
		names := make([]string, 0, len(j.Result.Metrics))
		for name := range j.Result.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			ws(name)
			wf(j.Result.Metrics[name])
		}
		names = names[:0]
		for name := range j.Result.Counters {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			ws(name)
			wu(j.Result.Counters[name])
		}
	}
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ws(name)
		wdist(r.Metrics[name])
	}
	names = names[:0]
	for name := range r.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ws(name)
		wu(r.Counters[name])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
