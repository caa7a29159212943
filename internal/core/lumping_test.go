package core

import (
	"slices"
	"testing"

	"repro/internal/mac"
	"repro/internal/sim"
)

// fullModel enumerates m's chain without lumping: a breadth-first
// search keyed on the raw State, each state its own orbit of weight 1.
// It is the reference the lumped chain is checked against.
func fullModel(m *Model) *Model {
	f := &Model{Periods: m.Periods, NackThreshold: m.NackThreshold, Hyper: m.Hyper}
	ids := make(map[State]int32)
	add := func(s State) int32 {
		if id, ok := ids[s]; ok {
			return id
		}
		id := int32(len(f.list))
		ids[s] = id
		f.list = append(f.list, s)
		f.weight = append(f.weight, 1)
		return id
	}
	for _, s := range f.initialStates() {
		add(s)
	}
	f.numInit = len(f.list)
	f.rowStart = []int32{0}
	var buf []succ
	var row []edge
	for id := 0; id < len(f.list); id++ {
		buf = f.step(f.list[id], buf[:0])
		slices.SortFunc(buf, func(a, b succ) int { return compareStates(a.s, b.s) })
		row = row[:0]
		for _, e := range buf {
			row = append(row, edge{add(e.s), e.p})
		}
		f.appendRow(row)
	}
	return f
}

// TestLumpedChainMatchesFullChain checks every Appendix C config: the
// orbit weights give back the full chain's state and absorbing counts
// exactly, and the lumped solve matches the full one.
func TestLumpedChainMatchesFullChain(t *testing.T) {
	for _, c := range []struct {
		periods           []int
		states, absorbing int
	}{
		{[]int{2}, 7, 4},
		{[]int{2, 2}, 16, 4},
		{[]int{4, 4}, 160, 48},
		{[]int{2, 4, 4}, 2652, 96},
		{[]int{4, 4, 4, 4}, 84816, 2400},
	} {
		m := newModel(t, c.periods...)
		full := fullModel(m)
		if len(full.list) != c.states || full.NumAbsorbing() != c.absorbing {
			t.Fatalf("%v: full chain has %d states, %d absorbing; want %d, %d",
				c.periods, len(full.list), full.NumAbsorbing(), c.states, c.absorbing)
		}
		if m.NumStates() != c.states || m.NumAbsorbing() != c.absorbing {
			t.Errorf("%v: lumped chain weighs %d states, %d absorbing; want %d, %d",
				c.periods, m.NumStates(), m.NumAbsorbing(), c.states, c.absorbing)
		}
		mean, worst := solve(t, m)
		wantMean, wantWorst := solve(t, full)
		if relErr(mean, wantMean) > 1e-12 || relErr(worst, wantWorst) > 1e-12 {
			t.Errorf("%v: lumped (%v, %v) vs full (%v, %v)", c.periods, mean, worst, wantMean, wantWorst)
		}
	}
}

// TestStepIsPermutationEquivariant is the soundness condition for
// lumping: permuting equal-period tags of a reachable state permutes
// its successors, so both give the same canonical distribution.
func TestStepIsPermutationEquivariant(t *testing.T) {
	rng := sim.NewRand(18)
	for _, ps := range [][]mac.Period{{2, 4, 4}, {4, 4, 4, 4}} {
		m, err := NewModel(ps, mac.DefaultNackThreshold)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 300; trial++ {
			s := m.list[rng.Intn(len(m.list))]
			perm := s
			for _, c := range m.classes {
				for a, b := range rng.Perm(len(c)) {
					perm.Tags[c[a]] = s.Tags[c[b]]
				}
			}
			if got := m.canon(perm); got != s {
				t.Fatalf("%v: canon(%v) = %v, want %v", ps, perm, got, s)
			}
			want := m.lumpedStep(s, nil)
			if got := m.lumpedStep(perm, nil); !slices.Equal(got, want) {
				t.Fatalf("%v: step(%v) and step(%v) differ after canonicalisation", ps, perm, s)
			}
		}
	}
}
