package arachnet

import (
	"repro/internal/dsp"
	"repro/internal/obs"
	"repro/internal/reader"
	"repro/internal/sim"
)

// Waveform-in-the-loop decoding. With NetworkConfig.WaveformDecode set,
// the reader stops drawing per-packet outcomes from the probabilistic
// link model and instead synthesizes each slot's superposed baseband —
// every tag's FM0 chips at its own skewed chip rate, riding on the
// carrier leakage with channel noise — and runs dsp.DecodeSlot on it:
// symbol-timing search, FM0 decode with CRC, and amplitude-cluster
// collision inference. Slower, but every protocol outcome is then
// earned by signal processing rather than sampled.

// samplesPerChip for the waveform composition: enough for the matched
// filter, cheap enough for thousand-slot runs.
const wfSamplesPerChip = 8

// carrierLeakage is the un-modulated carrier amplitude at the reader
// ADC in baseband units (matching the dsp experiments).
const carrierLeakage = 0.2

// decodeSlotWaveform composes and processes one slot's uplink capture.
func (n *Network) decodeSlotWaveform(events []reader.ULEvent) reader.SlotDecodeResult {
	if len(events) == 0 {
		return reader.SlotDecodeResult{}
	}
	// Timeline bounds.
	start := events[0].Start
	end := events[0].End
	for _, ev := range events[1:] {
		if ev.Start < start {
			start = ev.Start
		}
		if ev.End > end {
			end = ev.End
		}
	}
	// Nominal sampling grid from the configured chip rate.
	nominalRate := 12_000.0 / float64(n.Cfg.ULDivider)
	fs := nominalRate * wfSamplesPerChip
	// Guard chips on both sides so the decoder sees idle level.
	guard := sim.FromSeconds(4 / nominalRate)
	t0 := start - guard
	nSamples := int((end-start+2*guard).Seconds()*fs) + 1

	noise := n.Channel.NoiseRMS(fs)
	if cap(n.wfSamples) < nSamples {
		n.wfSamples = make([]float64, nSamples)
	}
	samples := n.wfSamples[:nSamples]
	for i := range samples {
		t := t0 + sim.FromSeconds(float64(i)/fs)
		amp := carrierLeakage
		for _, ev := range events {
			if t < ev.Start || ev.ChipRate <= 0 || len(ev.Chips) == 0 {
				continue
			}
			idx := int((t - ev.Start).Seconds() * ev.ChipRate)
			if idx >= 0 && idx < len(ev.Chips) && ev.Chips[idx]&1 == 1 {
				amp += ev.Amplitude
			}
		}
		samples[i] = amp + n.wfNoise.NormFloat64()*noise
	}

	// Chip-rate recovery: the reader estimates the burst's actual chip
	// rate from its preamble (each tag's 12 kHz clock is slightly
	// skewed); we model ideal rate recovery by sampling at the
	// strongest burst's true rate.
	strongest := events[0]
	for _, ev := range events[1:] {
		if ev.Amplitude > strongest.Amplitude {
			strongest = ev
		}
	}
	v := dsp.DecodeSlot(samples, wfSamplesPerChip*nominalRate/strongest.ChipRate, &n.wfScratch)
	res := reader.SlotDecodeResult{Packet: v.Packet, HasPacket: v.Decoded, Collision: v.Collision}
	if n.Cfg.Trace.Enabled() {
		ev := obs.Event{Kind: obs.KindDecode, T: n.engine.Now().Seconds(),
			Collision: v.Collision, Value: float64(v.Clusters), Detail: "crc_fail"}
		if res.HasPacket {
			ev.TID = int(res.Packet.TID)
			ev.Detail = "ok"
		}
		n.Cfg.Trace.Emit(ev)
	}
	return res
}
