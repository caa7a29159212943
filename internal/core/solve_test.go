package core

import (
	"math"
	"testing"

	"repro/internal/mac"
)

// The lumped chain's value iteration must agree with an independent
// dense solve of (I-Q)t = 1 on the full chain, for chains small enough
// to eliminate directly.
func TestFactoredSolveMatchesModel(t *testing.T) {
	for _, ps := range [][]mac.Period{{2}, {2, 2}, {4, 4}, {2, 4, 4}} {
		m, err := NewModel(ps, mac.DefaultNackThreshold)
		if err != nil {
			t.Fatal(err)
		}
		wantMean, wantWorst := denseAbsorption(t, fullModel(m))
		gotMean, gotWorst, err := m.ExpectedAbsorptionSlots()
		if err != nil {
			t.Fatal(err)
		}
		if relErr(gotMean, wantMean) > 1e-9 || relErr(gotWorst, wantWorst) > 1e-9 {
			t.Fatalf("periods %v: solved (%v, %v) != dense (%v, %v)",
				ps, gotMean, gotWorst, wantMean, wantWorst)
		}
	}
}

// denseAbsorption solves (I-Q)t = 1 over m's transient states by
// Gaussian elimination with partial pivoting, and returns the
// weight-averaged mean over the post-RESET initial states and the
// worst transient state.
func denseAbsorption(t *testing.T, m *Model) (mean, worst float64) {
	t.Helper()
	row := make([]int, len(m.list)) // state id -> row of Q, -1 if absorbing
	n := 0
	for id, s := range m.list {
		row[id] = -1
		if !m.IsAbsorbing(s) {
			row[id] = n
			n++
		}
	}
	// a is the augmented system [I-Q | 1].
	a := make([][]float64, n)
	for id := range m.list {
		i := row[id]
		if i < 0 {
			continue
		}
		a[i] = make([]float64, n+1)
		a[i][i] = 1
		a[i][n] = 1
		for k := m.rowStart[id]; k < m.rowStart[id+1]; k++ {
			if j := row[m.to[k]]; j >= 0 {
				a[i][j] -= m.p[k]
			}
		}
	}
	for k := 0; k < n; k++ {
		piv := k
		for i := k + 1; i < n; i++ {
			if math.Abs(a[i][k]) > math.Abs(a[piv][k]) {
				piv = i
			}
		}
		if a[piv][k] == 0 {
			t.Fatalf("periods %v: I-Q is singular", m.Periods)
		}
		a[k], a[piv] = a[piv], a[k]
		pk := a[k][k:]
		for i := k + 1; i < n; i++ {
			f := a[i][k] / pk[0]
			if f == 0 {
				continue
			}
			ri := a[i][k:]
			for j := range pk {
				ri[j] -= f * pk[j]
			}
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		v := a[i][n]
		for j := i + 1; j < n; j++ {
			v -= a[i][j] * x[j]
		}
		x[i] = v / a[i][i]
		worst = math.Max(worst, x[i])
	}
	var total float64
	for id := 0; id < m.numInit; id++ {
		w := float64(m.weight[id])
		if i := row[id]; i >= 0 {
			mean += w * x[i]
		}
		total += w
	}
	return mean / total, worst
}

func relErr(got, want float64) float64 {
	return math.Abs(got-want) / math.Abs(want)
}
