package mac

import (
	"errors"
	"fmt"
	"sort"
)

// Vanilla (centralized) slot allocation, Sec. 5.2: with periods known
// up front and perfect synchronization, the offsets a_i can be chosen
// statically so no two tags ever share a slot. The paper shows why this
// breaks in practice (beacon loss, late arrival); it remains the
// baseline and the reader's internal feasibility oracle.

// Assignment is a tag's static schedule: transmit when
// slot mod Period == Offset.
type Assignment struct {
	Period Period
	Offset int
}

// Conflicts reports whether two assignments ever transmit in the same
// slot. For power-of-two periods this happens iff the offsets are
// congruent modulo the smaller period, that is iff they agree in the
// smaller period's low bits. Precondition: both periods are valid and
// both offsets are >= 0 (every constructor keeps offsets in [0, P)).
func (a Assignment) Conflicts(b Assignment) bool {
	m := a.Period
	if b.Period < m {
		m = b.Period
	}
	return (a.Offset^b.Offset)&(int(m)-1) == 0
}

// TransmitsAt reports whether the assignment fires in absolute slot s:
// s mod P == Offset mod P, evaluated as a mask because P is a power of
// two. Precondition: a.Period is valid, a.Offset >= 0 and s >= 0.
func (a Assignment) TransmitsAt(s int) bool {
	return (s^a.Offset)&(int(a.Period)-1) == 0
}

// ErrInfeasible is returned when no collision-free allocation exists.
var ErrInfeasible = errors.New("mac: no collision-free allocation exists")

// VanillaAllocate computes a non-overlapping static schedule for the
// pattern (Table 1 generalized), or ErrInfeasible. It assigns tags in
// ascending period order with backtracking; the result maps tag index
// to its assignment.
func VanillaAllocate(pt Pattern) ([]Assignment, error) {
	if err := pt.Validate(); err != nil {
		return nil, err
	}
	// Work on tags sorted by period (shortest first — they are the
	// most constrained), remembering original indices.
	order := make([]int, pt.NumTags())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return pt.Periods[order[a]] < pt.Periods[order[b]]
	})

	chosen := make([]Assignment, 0, pt.NumTags())
	var backtrack func(k int) bool
	backtrack = func(k int) bool {
		if k == len(order) {
			return true
		}
		p := pt.Periods[order[k]]
		for off := 0; off < int(p); off++ {
			cand := Assignment{Period: p, Offset: off}
			ok := true
			for _, prev := range chosen {
				if cand.Conflicts(prev) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			chosen = append(chosen, cand)
			if backtrack(k + 1) {
				return true
			}
			chosen = chosen[:len(chosen)-1]
		}
		return false
	}
	if !backtrack(0) {
		return nil, ErrInfeasible
	}
	out := make([]Assignment, pt.NumTags())
	for k, idx := range order {
		out[idx] = chosen[k]
	}
	return out, nil
}

// VerifySchedule exhaustively checks a schedule over its hyperperiod
// and returns an error naming the first colliding slot, or nil.
func VerifySchedule(as []Assignment) error {
	h := 1
	for _, a := range as {
		if int(a.Period) > h {
			h = int(a.Period)
		}
	}
	for s := 0; s < h; s++ {
		count := 0
		for _, a := range as {
			if a.TransmitsAt(s) {
				count++
			}
		}
		if count > 1 {
			return fmt.Errorf("mac: %d tags collide in slot %d", count, s)
		}
	}
	return nil
}

// FeasibleOffset returns an offset for a new tag with period p that
// avoids all existing assignments, or -1 when none exists — the
// reader's Sec. 5.6 oracle ("the reader analyzes the periods of each
// tag and the current slot occupancy").
func FeasibleOffset(existing []Assignment, p Period) int {
	for off := 0; off < int(p); off++ {
		cand := Assignment{Period: p, Offset: off}
		ok := true
		for _, a := range existing {
			if cand.Conflicts(a) {
				ok = false
				break
			}
		}
		if ok {
			return off
		}
	}
	return -1
}

// Table1Example returns the paper's illustrative allocation: four tags
// with periods 2, 4, 8, 8 and offsets 0, 1, 7, 3 — full utilization
// with zero overlap.
func Table1Example() []Assignment {
	return []Assignment{
		{Period: 2, Offset: 0},
		{Period: 4, Offset: 1},
		{Period: 8, Offset: 7},
		{Period: 8, Offset: 3},
	}
}
