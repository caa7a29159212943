package mac

import (
	"fmt"
	"sort"
	"testing"
)

func TestEstimateConvergenceValidation(t *testing.T) {
	if _, err := EstimateConvergenceSlots(Pattern{Periods: []Period{3}}); err == nil {
		t.Error("invalid pattern accepted")
	}
	if _, err := EstimateConvergenceSlots(Pattern{Periods: []Period{2, 2, 2}}); err == nil {
		t.Error("over-capacity pattern accepted")
	}
}

func TestEstimateGrowsWithUtilization(t *testing.T) {
	pats := Table3Patterns()
	e1, err := EstimateConvergenceSlots(pats[0]) // c1, U=0.375
	if err != nil {
		t.Fatal(err)
	}
	e5, err := EstimateConvergenceSlots(pats[4]) // c5, U=1.0
	if err != nil {
		t.Fatal(err)
	}
	if e5 <= 2*e1 {
		t.Errorf("estimate does not grow with utilization: c1=%v c5=%v", e1, e5)
	}
}

// TestEstimateTracksSimulator keeps the closed form honest against the
// simulator across the Table 3 workloads: within a factor of ~2.5 of
// the simulated median (measured spread is 0.8-1.4x at large seed
// counts; medians of heavy-tailed convergence times are noisy at the
// seed counts a unit test can afford).
// CompareConvergenceEstimate runs the simulator for a pattern and
// reports (analytical, simulated-median), which keeps the approximation
// honest.
func CompareConvergenceEstimate(pt Pattern, seeds int) (analytical, simMedian float64, err error) {
	analytical, err = EstimateConvergenceSlots(pt)
	if err != nil {
		return 0, 0, err
	}
	var times []int
	for seed := 0; seed < seeds; seed++ {
		s, err := NewSlotSim(SlotSimConfig{Pattern: pt, Seed: uint64(seed)})
		if err != nil {
			return 0, 0, err
		}
		t, ok := s.RunUntilConverged(500_000)
		if !ok {
			return 0, 0, fmt.Errorf("mac: %s seed %d did not converge", pt.Name, seed)
		}
		times = append(times, t)
	}
	sort.Ints(times)
	return analytical, float64(times[len(times)/2]), nil
}

func TestEstimateTracksSimulator(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator sweep")
	}
	for _, pt := range Table3Patterns() {
		analytical, sim, err := CompareConvergenceEstimate(pt, 15)
		if err != nil {
			t.Fatalf("%s: %v", pt.Name, err)
		}
		ratio := analytical / sim
		if ratio < 0.4 || ratio > 2.5 {
			t.Errorf("%s: analytical %v vs simulated %v (ratio %.2f)",
				pt.Name, analytical, sim, ratio)
		}
	}
}
