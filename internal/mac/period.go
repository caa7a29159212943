// Package mac implements ARACHNET's distributed slot allocation
// protocol (Sec. 5): the permissible-period algebra, the vanilla static
// allocator it improves upon, the MIGRATE/SETTLE tag state machine with
// beacon-loss and late-arrival handling, the reader-side feedback
// policy with EMPTY-flag gating and future-collision avoidance, the
// convergence detector, and the pure-ALOHA baseline of Appendix B.
//
// The package is deliberately free of I/O and hardware concerns: the
// same state machines drive both the fast slot-level simulator and the
// waveform-level integration, so protocol behaviour cannot diverge
// between fidelity layers.
package mac

import (
	"fmt"
)

// Period is a tag's transmission period in slots. Permissible periods
// are powers of two (P = {2^k}), which makes slot allocation
// composable: two tags with periods p <= q collide iff their offsets
// are congruent modulo p.
type Period int

// ValidPeriod reports whether p is a permissible period (a positive
// power of two).
func ValidPeriod(p Period) bool {
	return p > 0 && p&(p-1) == 0
}

// Pattern is a workload: the transmission period of every tag, indexed
// by tag. It corresponds to one column of Table 3.
type Pattern struct {
	Name    string
	Periods []Period
}

// Utilization returns the combined transmission rate U = sum(1/p_i)
// (Eq. 1). A pattern is admissible only if U <= 1.
func (pt Pattern) Utilization() float64 {
	var u float64
	for _, p := range pt.Periods {
		u += 1 / float64(p)
	}
	return u
}

// Validate checks that every period is permissible and the utilization
// does not exceed channel capacity.
func (pt Pattern) Validate() error {
	for i, p := range pt.Periods {
		if !ValidPeriod(p) {
			return fmt.Errorf("mac: tag %d period %d not a power of two", i, p)
		}
	}
	if u := pt.Utilization(); u > 1+1e-12 {
		return fmt.Errorf("mac: utilization %.4f exceeds capacity", u)
	}
	return nil
}

// NumTags returns the number of tags in the pattern.
func (pt Pattern) NumTags() int { return len(pt.Periods) }

// patternOf expands a Table 3 column: counts of tags at periods
// 4, 8, 16 and 32 slots.
func patternOf(name string, n4, n8, n16, n32 int) Pattern {
	var ps []Period
	for i := 0; i < n4; i++ {
		ps = append(ps, 4)
	}
	for i := 0; i < n8; i++ {
		ps = append(ps, 8)
	}
	for i := 0; i < n16; i++ {
		ps = append(ps, 16)
	}
	for i := 0; i < n32; i++ {
		ps = append(ps, 32)
	}
	return Pattern{Name: name, Periods: ps}
}

// Table3Patterns returns the paper's nine evaluation workloads.
// c1..c5 keep 12 tags and sweep utilization 0.38 -> 1.0; c2 and c6..c9
// hold utilization at 0.75 with varying tag counts.
func Table3Patterns() []Pattern {
	return []Pattern{
		patternOf("c1", 0, 0, 0, 12),
		patternOf("c2", 0, 0, 12, 0),
		patternOf("c3", 1, 2, 2, 7),
		patternOf("c4", 0, 6, 0, 6),
		patternOf("c5", 1, 3, 4, 4),
		patternOf("c6", 0, 1, 10, 0),
		patternOf("c7", 1, 1, 4, 4),
		patternOf("c8", 1, 1, 6, 0),
		patternOf("c9", 2, 0, 4, 0),
	}
}
