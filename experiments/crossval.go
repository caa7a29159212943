package experiments

import (
	"fmt"

	"repro/arachnet"
)

// RunModeCrossValidation runs the same deployment through the
// probabilistic link model and through full waveform-in-the-loop DSP
// decoding, and compares the operating points. Agreement between the
// two is the calibration check for the fast mode: the probabilistic
// outcomes must be indistinguishable (at protocol level) from signal
// processing on synthesized captures.
func RunModeCrossValidation(seed uint64, seconds int) (Table, error) {
	if seconds <= 0 {
		seconds = 900
	}
	run := func(wf bool) (arachnet.NetworkStats, error) {
		cfg := arachnet.DefaultNetworkConfig()
		cfg.Seed = seed
		cfg.WaveformDecode = wf
		net, err := arachnet.NewNetwork(cfg)
		if err != nil {
			return arachnet.NetworkStats{}, err
		}
		net.Run(arachnet.Time(seconds) * arachnet.Second)
		return net.Stats(), nil
	}
	// The two modes are independent networks with the same seed; run
	// them concurrently (the waveform mode dominates the wall clock).
	var stats [2]arachnet.NetworkStats
	if err := runJobs("crossval", 2, func(i int) error {
		st, err := run(i == 1)
		stats[i] = st
		return err
	}); err != nil {
		return Table{}, err
	}
	prob, wave := stats[0], stats[1]
	tb := Table{
		Title:  fmt.Sprintf("Link-Model Cross-Validation (c3, %d slots)", seconds),
		Header: []string{"Mode", "non-empty", "collision", "decoded", "converged at"},
	}
	row := func(name string, st arachnet.NetworkStats) {
		conv := "never"
		if st.Converged {
			conv = fmt.Sprintf("%d", st.ConvergenceSlot)
		}
		tb.AddRow(name, f3(st.NonEmptyRatio), f3(st.CollisionRatio),
			fmt.Sprintf("%d", st.Decoded), conv)
	}
	row("probabilistic link model", prob)
	row("waveform-in-the-loop DSP", wave)
	tb.Notes = append(tb.Notes,
		"same protocol, two physical layers: the calibrated fast model must match real DSP on synthesized captures")
	return tb, nil
}
