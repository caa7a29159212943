package experiments

import (
	"fmt"

	"repro/arachnet"
	"repro/internal/fleet"
	"repro/internal/phy"
	"repro/internal/sim"
)

// Fig14Result summarizes the ping-pong latency distribution.
type Fig14Result struct {
	Samples        int
	Stage1MedianMs float64
	Stage2MedianMs float64
	Stage2P99Ms    float64
	TotalP99Ms     float64
	ReaderDelayMs  float64
}

// RunFig14 measures the DL-beacon -> UL-decode round trip on the live
// network (Fig. 14: 99% of stage 2 under 281.9 ms; the reader software
// adds ~58.9 ms).
func RunFig14(seed uint64) (Fig14Result, Table, error) {
	// The network run and the Fig. 14(a) waveform rendering draw from
	// independent RNGs seeded separately, so they run concurrently.
	var net *arachnet.Network
	var wfSpark string
	var wfErr error
	if err := runJobs("fig14", 2, func(i int) error {
		if i == 1 {
			wfSpark, wfErr = RenderFig14Waveform(seed)
			return nil
		}
		cfg := arachnet.DefaultNetworkConfig()
		cfg.Seed = seed
		n, err := arachnet.NewNetwork(cfg)
		if err != nil {
			return err
		}
		n.Run(600 * arachnet.Second)
		net = n
		return nil
	}); err != nil {
		return Fig14Result{}, Table{}, err
	}
	pp := net.Reader.PingPongs()
	if len(pp) == 0 {
		return Fig14Result{}, Table{}, fmt.Errorf("no ping-pong samples")
	}
	var s1, s2, total []float64
	for _, s := range pp {
		s1 = append(s1, s.Stage1.Milliseconds())
		s2 = append(s2, s.Stage2.Milliseconds())
		total = append(total, (s.Stage1 + s.Stage2).Milliseconds())
	}
	d2 := fleet.NewDistribution(s2)
	res := Fig14Result{
		Samples:        len(pp),
		Stage1MedianMs: fleet.NewDistribution(s1).P50,
		Stage2MedianMs: d2.P50,
		Stage2P99Ms:    d2.P99,
		TotalP99Ms:     fleet.NewDistribution(total).P99,
		ReaderDelayMs:  net.Reader.Cfg.ProcessingDelay.Milliseconds(),
	}
	tb := Table{
		Title:  "Fig. 14: Ping-Pong Latency CDF Anchors",
		Header: []string{"Metric", "ms"},
	}
	tb.AddRow("stage 1 median (DL beacon)", f1(res.Stage1MedianMs))
	tb.AddRow("stage 2 median (DL end -> UL decoded)", f1(res.Stage2MedianMs))
	tb.AddRow("stage 2 p99", f1(res.Stage2P99Ms))
	tb.AddRow("total p99", f1(res.TotalP99Ms))
	tb.AddRow("reader software delay", f1(res.ReaderDelayMs))
	tb.Notes = append(tb.Notes,
		fmt.Sprintf("%d samples; paper: 99%% of stage 2 < 281.9 ms, software delay ~58.9 ms", res.Samples))
	if wfErr == nil {
		tb.Notes = append(tb.Notes, "RX envelope over one ping-pong (Fig. 14a):", wfSpark)
	}
	return res, tb, nil
}

// RenderFig14Waveform synthesizes the reader RX PZT envelope over one
// ping-pong exchange — the Fig. 14(a) oscillogram: the strong PIE
// beacon, the tag's 20 ms polite wait, then the faint FM0 backscatter
// riding on the carrier leakage — and renders it as a sparkline.
func RenderFig14Waveform(seed uint64) (string, error) {
	rng := sim.NewRand(seed)
	const fs = 4000.0 // envelope-rate rendering is enough for a figure
	beacon := (phy.Beacon{Cmd: phy.CmdACK}).Marshal()
	dlChips := phy.AppendPIE(nil, uint64(beacon), phy.DLFrameBits)
	pkt, err := (phy.ULPacket{TID: 6, Payload: 0x5A5}).Marshal()
	if err != nil {
		return "", err
	}
	ulChips := phy.AppendFM0(nil, uint64(pkt), phy.ULFrameBits, 0)

	var env []float64
	push := func(level float64, seconds float64) {
		n := int(seconds * fs)
		for i := 0; i < n; i++ {
			env = append(env, level+0.01*rng.NormFloat64())
		}
	}
	// DL beacon: the reader keys its own strong drive (big envelope).
	for _, c := range dlChips {
		level := 0.08 // off-resonant low tone leak
		if c&1 == 1 {
			level = 1.0
		}
		push(level, 1/phy.DefaultDLRate)
	}
	// Polite wait: carrier only.
	push(0.25, 0.020)
	// UL: small backscatter swing on the carrier leakage.
	for _, c := range ulChips {
		level := 0.25
		if c&1 == 1 {
			level = 0.33
		}
		push(level, 1/phy.DefaultULRate)
	}
	push(0.25, 0.050)
	return Sparkline(env, 100), nil
}
