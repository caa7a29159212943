package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/mac"
)

func newModel(t *testing.T, periods ...int) *Model {
	t.Helper()
	ps := make([]mac.Period, len(periods))
	for i, p := range periods {
		ps[i] = mac.Period(p)
	}
	m, err := NewModel(ps, mac.DefaultNackThreshold)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// solve returns m's expected absorption time (mean over the post-RESET
// states, and the worst transient state).
func solve(t *testing.T, m *Model) (mean, worst float64) {
	t.Helper()
	mean, worst, err := m.ExpectedAbsorptionSlots()
	if err != nil {
		t.Fatal(err)
	}
	return mean, worst
}

func TestNewModelValidation(t *testing.T) {
	if _, err := NewModel(nil, 3); err == nil {
		t.Error("empty periods accepted")
	}
	if _, err := NewModel([]mac.Period{2, 2, 2}, 3); err == nil {
		t.Error("over-capacity accepted")
	}
	if _, err := NewModel([]mac.Period{3}, 3); err == nil {
		t.Error("invalid period accepted")
	}
	if _, err := NewModel(make([]mac.Period, MaxModelTags+1), 3); err == nil {
		t.Error("too many tags accepted")
	}
}

func TestSingleTagChain(t *testing.T) {
	m := newModel(t, 2)
	// One tag, period 2: states = phase(2) x (settled? x offset(2) x
	// nacks) — small and fully absorbing-reachable.
	if m.NumStates() == 0 {
		t.Fatal("no states")
	}
	if err := m.VerifyLemma1(); err != nil {
		t.Error(err)
	}
	if err := m.VerifyLemma2(); err != nil {
		t.Error(err)
	}
	if err := m.VerifyReachability(); err != nil {
		t.Error(err)
	}
	mean, worst := solve(t, m)
	// A lone tag settles on its first transmission: expected time is
	// within one period of the first matching slot.
	if mean <= 0 || mean > 4 {
		t.Errorf("mean absorption = %v slots", mean)
	}
	if worst < mean {
		t.Errorf("worst %v < mean %v", worst, mean)
	}
}

// TestAppendixCLemmas verifies Lemmas 1-3 and Theorem 4 mechanically on
// several small networks, including full utilization.
func TestAppendixCLemmas(t *testing.T) {
	cases := [][]int{
		{2},
		{2, 2},       // full utilization, two tags
		{2, 4, 4},    // full utilization, mixed periods
		{4, 4},       // half utilization
		{4, 4, 4, 4}, // full utilization, four tags
	}
	for _, periods := range cases {
		m := newModel(t, periods...)
		if err := m.VerifyLemma1(); err != nil {
			t.Errorf("%v: Lemma 1: %v", periods, err)
		}
		if err := m.VerifyLemma2(); err != nil {
			t.Errorf("%v: Lemma 2: %v", periods, err)
		}
		if err := m.VerifyReachability(); err != nil {
			t.Errorf("%v: Lemma 3: %v", periods, err)
		}
	}
}

func TestAbsorbingStatesAreConflictFree(t *testing.T) {
	m := newModel(t, 2, 4, 4)
	abs := m.AbsorbingStates()
	if len(abs) == 0 {
		t.Fatal("no absorbing states at full utilization")
	}
	for _, id := range abs {
		s := m.list[id]
		if !m.IsAbsorbing(s) {
			t.Fatal("AbsorbingStates returned non-absorbing state")
		}
	}
}

// TestStateOffsetsInRange checks the precondition of the mask forms of
// mac.Assignment.TransmitsAt and Conflicts, which the chain's conflict
// test relies on: every enumerated state keeps each offset in [0, P).
func TestStateOffsetsInRange(t *testing.T) {
	m := newModel(t, 2, 4, 8)
	for id := 0; id < m.NumStates(); id++ {
		s := m.list[id]
		for i, p := range m.Periods {
			if off := int(s.Tags[i].Offset); off >= int(p) {
				t.Fatalf("state %d: tag %d offset %d outside [0, %d)", id, i, off, p)
			}
		}
	}
}

func TestExpectedAbsorptionGrowsWithUtilization(t *testing.T) {
	low := newModel(t, 4, 4) // U = 0.5
	high := newModel(t, 2, 4, 4)
	meanLow, _ := solve(t, low)
	meanHigh, _ := solve(t, high)
	if meanHigh <= meanLow {
		t.Errorf("full utilization (%v slots) should converge slower than half (%v)",
			meanHigh, meanLow)
	}
}

// TestModelMatchesSimulator cross-checks the exact expected absorption
// time against the executable protocol's Monte Carlo average: the
// engineering twin (mac.SlotSim) and the formal model must agree.
func TestModelMatchesSimulator(t *testing.T) {
	periods := []mac.Period{2, 4, 4}
	m, err := NewModel(periods, mac.DefaultNackThreshold)
	if err != nil {
		t.Fatal(err)
	}
	exact, _ := solve(t, m)
	// Monte Carlo over the simulator: absorption = all tags settled
	// (measure the first all-settled slot, comparable to the model's
	// absorption definition).
	const trials = 400
	var sum float64
	for seed := 0; seed < trials; seed++ {
		s, err := mac.NewSlotSim(mac.SlotSimConfig{
			Pattern: mac.Pattern{Periods: periods},
			Seed:    uint64(seed),
		})
		if err != nil {
			t.Fatal(err)
		}
		slots := 0
		for ; slots < 10_000; slots++ {
			s.Step()
			if s.AllSettled() {
				break
			}
		}
		sum += float64(slots)
	}
	mc := sum / trials
	// The simulator's reader tracks a little more state than the model
	// (eviction, belief staleness), so allow a generous band; the two
	// must still agree on the scale.
	if mc < exact/3 || mc > exact*3 {
		t.Errorf("simulator mean %.1f vs exact %.1f slots", mc, exact)
	}
}

// Describe returns a short human-readable model summary.
func (m *Model) Describe() string {
	ps := make([]int, len(m.Periods))
	for i, p := range m.Periods {
		ps[i] = int(p)
	}
	slices.Sort(ps)
	return fmt.Sprintf("core: periods=%v N=%d states=%d absorbing=%d",
		ps, m.NackThreshold, m.NumStates(), m.NumAbsorbing())
}

func TestDescribe(t *testing.T) {
	m := newModel(t, 4, 2)
	s := m.Describe()
	if !strings.Contains(s, "states=") || !strings.Contains(s, "absorbing=") {
		t.Errorf("describe = %q", s)
	}
}

// TestTransitionProbabilitiesSumToOne is a structural sanity check on
// the enumerated chain: every CSR row is a probability distribution
// over strictly increasing successor ids.
func TestTransitionProbabilitiesSumToOne(t *testing.T) {
	m := newModel(t, 2, 4)
	for id := range m.list {
		var sum float64
		for k := m.rowStart[id]; k < m.rowStart[id+1]; k++ {
			if m.p[k] <= 0 {
				t.Fatalf("state %d: probability %v", id, m.p[k])
			}
			if k > m.rowStart[id] && m.to[k] <= m.to[k-1] {
				t.Fatalf("state %d: row not sorted by successor id", id)
			}
			sum += m.p[k]
		}
		if sum < 0.999999 || sum > 1.000001 {
			t.Fatalf("state %d outgoing mass %v", id, sum)
		}
	}
}

// TestModelDeterministicEnumeration guards against map-order dependence
// in state numbering: two builds give identical CSR arrays.
func TestModelDeterministicEnumeration(t *testing.T) {
	a := newModel(t, 2, 4, 4)
	b := newModel(t, 2, 4, 4)
	if !slices.Equal(a.list, b.list) || !slices.Equal(a.weight, b.weight) ||
		!slices.Equal(a.rowStart, b.rowStart) || !slices.Equal(a.to, b.to) || !slices.Equal(a.p, b.p) {
		t.Fatal("two builds of the same config differ")
	}
	ea, _ := solve(t, a)
	eb, _ := solve(t, b)
	if ea != eb {
		t.Errorf("expected times differ: %v vs %v", ea, eb)
	}
}

// TestCanonicalStateCounts pins the lumped chain sizes: a silent return
// to the full chain (2652 and 84816 states) fails here.
func TestCanonicalStateCounts(t *testing.T) {
	for _, c := range []struct {
		periods   []int
		canonical int
	}{
		{[]int{2, 4, 4}, 1388},
		{[]int{4, 4, 4, 4}, 4476},
	} {
		if got := len(newModel(t, c.periods...).list); got != c.canonical {
			t.Errorf("%v: %d canonical states, want %d", c.periods, got, c.canonical)
		}
	}
}

// TestPeriodOrderGivesSameTable checks that {4,2} and {2,4}, which
// number their states differently, give the same Appendix C numbers.
func TestPeriodOrderGivesSameTable(t *testing.T) {
	a, b := newModel(t, 4, 2), newModel(t, 2, 4)
	if a.NumStates() != b.NumStates() || a.NumAbsorbing() != b.NumAbsorbing() {
		t.Fatalf("counts differ: %s vs %s", a.Describe(), b.Describe())
	}
	meanA, worstA := solve(t, a)
	meanB, worstB := solve(t, b)
	if relErr(meanA, meanB) > 1e-12 || relErr(worstA, worstB) > 1e-12 {
		t.Fatalf("{4,2} (%v, %v) vs {2,4} (%v, %v)", meanA, worstA, meanB, worstB)
	}
}
