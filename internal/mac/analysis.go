package mac

import (
	"math"
	"sort"
)

// Analytical convergence estimate. The exact chain (internal/core) is
// only tractable for a handful of tags; for deployment-scale patterns
// this gives a closed-form approximation of the Fig. 15 first-
// convergence time, exposing *why* utilization dominates.
//
// Model: all migrating tags probe in parallel, but free slots erode as
// tags settle (shortest periods first — they probe most often and win
// contention). The tag that settles k-th sees free-offset fraction
// 1 - U_settled(k) and contention from the still-migrating tags; its
// expected settle time is a geometric wait of its own period length.
// Because probing is concurrent, the convergence time is governed by
// the WORST single tag's wait — the last settler facing the residual
// free slots — not the sum. Adding the 32-slot confirmation window
// yields the estimate. At full utilization the last tag must find the
// single remaining class of its period, giving the characteristic
// p^2 blow-up that Fig. 15(a) shows.

// EstimateConvergenceSlots returns the analytical approximation of the
// expected first-convergence time for a pattern, in slots.
func EstimateConvergenceSlots(pt Pattern) (float64, error) {
	if err := pt.Validate(); err != nil {
		return 0, err
	}
	// Settle order: ascending period (most aggressive first).
	periods := append([]Period(nil), pt.Periods...)
	sort.Slice(periods, func(a, b int) bool { return periods[a] < periods[b] })

	var worst float64
	var settledUtil float64 // fraction of slots consumed by settled tags
	for i, p := range periods {
		// Free-offset fraction for this tag given settled load.
		free := 1 - settledUtil
		if free <= 0 {
			free = 1 / float64(2*p) // capacity edge: one offset effectively
		}
		// Probability another still-migrating tag probes the same slot
		// this attempt: each of the m-1 remaining migrators covers 1/p_j
		// of the slots.
		var contention float64
		for j := i + 1; j < len(periods); j++ {
			contention += 1 / float64(periods[j])
		}
		pClear := math.Exp(-contention) // Poisson-style thinning
		pSuccess := free * pClear
		if pSuccess < 1e-6 {
			pSuccess = 1e-6
		}
		// Each attempt costs one period worth of slots; a failed attempt
		// (NACK) re-randomizes immediately. Concurrent probing means the
		// slowest settler sets the pace.
		if w := float64(p) / pSuccess; w > worst {
			worst = w
		}
		settledUtil += 1 / float64(p)
	}
	// The detector then needs 32 clean slots.
	return worst + 32, nil
}
