package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mac"
)

// RunAppendixC mechanically verifies the paper's convergence proof
// (Appendix C) on small exact models: Lemma 1 (all-settled implies
// collision-free), Lemma 2 (such states are absorbing), Lemma 3
// (reachability with probability 1) and the expected absorption time
// from the post-RESET distribution.
func RunAppendixC() (Table, error) {
	cases := [][]mac.Period{
		{2},
		{2, 2},
		{4, 4},
		{2, 4, 4},
		{4, 4, 4, 4},
	}
	tb := Table{
		Title:  "Appendix C: Absorbing Markov Chain Verification",
		Header: []string{"Periods", "states", "absorbing", "L1", "L2", "L3", "E[absorb] (slots)", "worst"},
	}
	for _, ps := range cases {
		m, err := core.NewModel(ps, mac.DefaultNackThreshold)
		if err != nil {
			return Table{}, err
		}
		if err := m.VerifyLemma1(); err != nil {
			return Table{}, fmt.Errorf("lemma 1 fails for %v: %w", ps, err)
		}
		if err := m.VerifyLemma2(); err != nil {
			return Table{}, fmt.Errorf("lemma 2 fails for %v: %w", ps, err)
		}
		// The solve checks Lemma 3 (reachability) before it iterates.
		mean, worst, err := m.ExpectedAbsorptionSlots()
		if err != nil {
			return Table{}, fmt.Errorf("lemma 3 fails for %v: %w", ps, err)
		}
		tb.AddRow(fmt.Sprintf("%v", ps), fmt.Sprintf("%d", m.NumStates()),
			fmt.Sprintf("%d", m.NumAbsorbing()), "ok", "ok", "ok", f1(mean), f1(worst))
	}
	tb.Notes = append(tb.Notes,
		"exact chains: every reachable state converges to a collision-free absorbing state with probability 1")
	return tb, nil
}
