package faults

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/sim"
)

// UnmarshalPlan parses and eagerly validates a JSON plan, so a typo'd
// probability fails at load time, not a million slots into a sweep.
func UnmarshalPlan(data []byte) (Plan, error) {
	var p Plan
	if err := json.Unmarshal(data, &p); err != nil {
		return Plan{}, fmt.Errorf("faults: parse plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

// LoadPlanFile reads a plan from a JSON file.
func LoadPlanFile(path string) (Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Plan{}, fmt.Errorf("faults: read plan: %w", err)
	}
	return UnmarshalPlan(data)
}

// RandomPlan derives a randomized but recoverable chaos plan from a
// seed: every parameter is drawn from a moderate range (fault pressure
// high enough to exercise the recovery paths, low enough that the
// protocol invariants — eviction terminates, browned-out tags re-settle
// — remain satisfiable). The invariant suite runs these.
func RandomPlan(seed uint64) Plan {
	r := sim.NewRand(seed ^ 0x9A7)
	uniform := func(lo, hi float64) float64 { return lo + r.Float64()*(hi-lo) }
	p := Plan{
		Name: fmt.Sprintf("random-%d", seed),
		Fades: &FadeSpec{
			Burst:   Burst{EnterProb: uniform(0.002, 0.01), MeanSlots: uniform(5, 20)},
			DepthDB: uniform(3, 9),
		},
		Feedback: &FeedbackSpec{
			LossProb:    uniform(0.001, 0.005),
			CorruptProb: uniform(0.0005, 0.002),
		},
		Brownouts: &BrownoutSpec{
			Prob:     uniform(0.0002, 0.001),
			OffSlots: uniform(5, 20),
		},
		ReaderOutages: &OutageSpec{
			Burst:          Burst{EnterProb: uniform(0.0002, 0.0005), MeanSlots: uniform(3, 10)},
			ResetOnRestart: r.Bool(0.5),
		},
		ClockJitter: &JitterSpec{
			SlipProb: uniform(0.0005, 0.003),
		},
	}
	return p
}
