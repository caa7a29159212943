package arachnet

import (
	"math"
	"testing"

	"repro/internal/dsp"
	"repro/internal/phy"
	"repro/internal/reader"
	"repro/internal/sim"
)

// passbandDecode is the passband test oracle for decodeSlotWaveform. It
// renders the same bursts on a 90 kHz carrier sampled at 500 kHz, mixes
// the capture down with a math.Cos/math.Sin local oscillator, integrates
// and dumps the I and Q products to ≥ 16 samples per chip, and feeds the
// magnitudes to dsp.DecodeSlot at the strongest burst's chip rate. Like
// the reader, it decodes nothing in a slot that carried no burst.
func passbandDecode(n *Network, events []reader.ULEvent, rng *sim.Rand) dsp.SlotVerdict {
	const fs, carrier, phase, perChip = 500_000.0, 90_000.0, 0.7, 16
	if len(events) == 0 {
		return dsp.SlotVerdict{}
	}
	nominal := 12_000.0 / float64(n.Cfg.ULDivider)
	start, end := events[0].Start, events[0].End
	rate, strongest := events[0].ChipRate, events[0].Amplitude
	for _, ev := range events[1:] {
		start, end = min(start, ev.Start), max(end, ev.End)
		if ev.Amplitude > strongest {
			rate, strongest = ev.ChipRate, ev.Amplitude
		}
	}
	guard := sim.FromSeconds(4 / nominal)
	t0 := start - guard
	dump := int(fs / (perChip * nominal)) // ADC samples per output sample
	iSum := make([]float64, int((end-start+2*guard).Seconds()*fs)/dump)
	qSum := make([]float64, len(iSum))
	noise := n.Channel.NoiseRMS(fs)
	for k := 0; k < len(iSum)*dump; k++ {
		t := t0 + sim.FromSeconds(float64(k)/fs)
		amp := carrierLeakage
		for _, ev := range events {
			idx := int((t - ev.Start).Seconds() * ev.ChipRate)
			if t >= ev.Start && idx < len(ev.Chips) && ev.Chips[idx]&1 == 1 {
				amp += ev.Amplitude
			}
		}
		w := 2 * math.Pi * carrier * float64(k) / fs
		x := amp*math.Cos(w+phase) + rng.NormFloat64()*noise
		iSum[k/dump] += x * math.Cos(w)
		qSum[k/dump] += x * math.Sin(w)
	}
	mags := make([]float64, len(iSum))
	for j := range mags {
		mags[j] = 2 * math.Hypot(iSum[j], qSum[j]) / float64(dump)
	}
	return dsp.DecodeSlot(mags, fs/float64(dump)/rate, new(dsp.SlotScratch))
}

// TestWaveformDecodeMatchesPassband checks the baseband slot decoder
// against the passband oracle on solo, capture-effect and silent slots:
// both must agree on whether a packet decoded, which one, and whether
// the slot collided.
func TestWaveformDecodeMatchesPassband(t *testing.T) {
	cfg := chargedConfig(61)
	cfg.WaveformDecode = true
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nominal := 12_000.0 / float64(n.Cfg.ULDivider)
	burst := func(rng *sim.Rand, amp float64) reader.ULEvent {
		pkt := phy.ULPacket{TID: uint8(1 + rng.Intn(12)), Payload: uint16(rng.Intn(1 << phy.PayloadBits))}
		frame, err := pkt.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		chips := phy.AppendFM0(nil, uint64(frame), phy.ULFrameBits, 0)
		rate := nominal * (1 + 0.002*rng.NormFloat64()) // skewed tag clock
		start := sim.FromSeconds(3 * rng.Float64() / nominal)
		return reader.ULEvent{TID: pkt.TID, Start: start, Amplitude: amp, Payload: pkt.Payload,
			Chips: chips, ChipRate: rate, End: start + sim.FromSeconds(float64(len(chips))/rate)}
	}
	for seed := uint64(1); seed <= 4; seed++ {
		rng := sim.NewRand(seed)
		for _, tc := range []struct {
			kind   string
			events []reader.ULEvent
		}{
			{"solo", []reader.ULEvent{burst(rng, 0.05)}},
			{"capture", []reader.ULEvent{burst(rng, 0.06), burst(rng, 0.025)}},
			{"silence", nil},
		} {
			base := n.decodeSlotWaveform(tc.events)
			pass := passbandDecode(n, tc.events, rng)
			if base.HasPacket != pass.Decoded || base.Packet != pass.Packet || base.Collision != pass.Collision {
				t.Errorf("seed %d %s: baseband {packet %v %+v collision %v}, passband {packet %v %+v collision %v, %d clusters}",
					seed, tc.kind, base.HasPacket, base.Packet, base.Collision,
					pass.Decoded, pass.Packet, pass.Collision, pass.Clusters)
			}
			if want := tc.kind == "capture"; pass.Collision != want {
				t.Errorf("seed %d %s: collision %v, want %v", seed, tc.kind, pass.Collision, want)
			}
			if want := tc.kind == "solo"; want && !pass.Decoded {
				t.Errorf("seed %d solo: nothing decoded", seed)
			}
		}
	}
}

func TestWaveformDecodeMode(t *testing.T) {
	cfg := chargedConfig(41)
	cfg.Tags = cfg.Tags[:4]
	for i := range cfg.Tags {
		cfg.Tags[i].Period = 8
	}
	cfg.WaveformDecode = true
	net, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	net.Run(300 * Second)
	st := net.Stats()
	if !st.Converged {
		t.Fatalf("waveform-mode network never converged: %v", st)
	}
	if st.Decoded < 80 {
		t.Errorf("only %d packets decoded through the DSP chain", st.Decoded)
	}
	// Decoded payloads are real frame contents.
	found := false
	for _, spec := range cfg.Tags {
		if len(net.Payloads(spec.TID)) > 0 {
			found = true
		}
	}
	if !found {
		t.Error("no payloads recorded")
	}
}

func TestWaveformModeMatchesProbabilisticShape(t *testing.T) {
	// Both modes must land at the same operating point: convergence and
	// high channel efficiency for the same workload.
	run := func(wf bool) NetworkStats {
		cfg := chargedConfig(42)
		cfg.WaveformDecode = wf
		net, err := NewNetwork(cfg)
		if err != nil {
			t.Fatal(err)
		}
		net.Run(900 * Second)
		return net.Stats()
	}
	prob := run(false)
	wave := run(true)
	if !prob.Converged || !wave.Converged {
		t.Fatalf("convergence: prob=%v wave=%v", prob.Converged, wave.Converged)
	}
	d := prob.NonEmptyRatio - wave.NonEmptyRatio
	if d < -0.08 || d > 0.08 {
		t.Errorf("modes disagree on non-empty ratio: %.3f vs %.3f",
			prob.NonEmptyRatio, wave.NonEmptyRatio)
	}
}

func TestResetProtocolReconverges(t *testing.T) {
	cfg := chargedConfig(51)
	net, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	net.Run(900 * Second)
	st := net.Stats()
	if !st.Converged {
		t.Fatal("setup: no first convergence")
	}
	first := st.ConvergenceSlot

	// RESET: everyone recontends and the detector restarts.
	net.ResetProtocol()
	net.Run(net.Now() + 2*Second)
	mid := net.Stats()
	if mid.Converged {
		t.Fatal("detector not restarted by RESET")
	}
	settled := 0
	for _, tp := range mid.Tags {
		if tp.Settled {
			settled++
		}
	}
	if settled > 3 {
		t.Errorf("%d tags still settled right after RESET", settled)
	}

	// And it converges again. The detector counts slots since the
	// RESET (the paper's first-convergence definition), so the second
	// figure is a fresh measurement, not an absolute slot index.
	net.Run(net.Now() + 1500*Second)
	again := net.Stats()
	if !again.Converged {
		t.Fatal("no re-convergence after RESET")
	}
	if again.ConvergenceSlot < 32 {
		t.Errorf("re-convergence measured at %d slots (< detector window)", again.ConvergenceSlot)
	}
	// Both measurements sample the same Fig. 15 distribution: same
	// order of magnitude.
	if again.ConvergenceSlot > 20*first || first > 20*again.ConvergenceSlot {
		t.Errorf("convergence measurements wildly apart: %d vs %d", first, again.ConvergenceSlot)
	}
	// Diagnostics populated: tags migrated during recontention.
	migrated := 0
	for _, tp := range again.Tags {
		if tp.Migrations > 0 {
			migrated++
		}
	}
	if migrated < 3 {
		t.Errorf("only %d tags report migrations after a full recontention", migrated)
	}
}

// TestWaveformNetworkSteadyStateAllocs holds a running waveform-mode
// network to at most 0.1 allocations per slot: every slot decodes in
// the network's reused sample buffer and dsp.SlotScratch. What is left
// is the reader's bounded logs still doubling towards their final size
// and the odd FM0 error of a failed timing phase.
func TestWaveformNetworkSteadyStateAllocs(t *testing.T) {
	cfg := DefaultNetworkConfig()
	cfg.WaveformDecode = true
	net, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	net.Run(100 * Second)
	const slots = 100
	allocs := testing.AllocsPerRun(5, func() { net.Run(net.Now() + slots*Second) })
	if perSlot := allocs / slots; perSlot > 0.1 {
		t.Errorf("waveform network: %.2f allocations per slot, want <= 0.1", perSlot)
	}
}
