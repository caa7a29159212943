package dsp

import (
	"math"

	"repro/internal/phy"
	"repro/internal/sim"
)

// Waveform synthesis for the waveform-level experiments: the
// baseband-equivalent backscatter uplink and the keyed (PIE) downlink,
// including carrier leakage, the PZT ring effect and additive noise.

// ULSynthParams describes one tag's backscatter transmission as seen at
// the reader ADC.
type ULSynthParams struct {
	Fs          float64 // ADC sample rate (500 kHz in the paper)
	ChipRate    float64 // raw chip rate
	Leakage     float64 // un-modulated carrier amplitude at the RX PZT
	Backscatter float64 // backscatter amplitude swing (reflective-absorptive)
	NoiseRMS    float64 // additive white noise at the ADC rate
}

// SynthesizeULBaseband renders the baseband-equivalent envelope of a
// chip stream directly (no carrier), at samplesPerChip resolution, for
// the bulk experiments (1,000-packet loss counts).
func SynthesizeULBaseband(chips phy.Bits, samplesPerChip int, p ULSynthParams, rng *sim.Rand) []float64 {
	out := make([]float64, len(chips)*samplesPerChip)
	// Baseband noise bandwidth is fs' = chipRate * samplesPerChip; keep
	// the noise density NoiseRMS has at the ADC rate Fs.
	noise := p.NoiseRMS * math.Sqrt(float64(samplesPerChip)*p.ChipRate/p.Fs)
	idx := 0
	for _, c := range chips {
		level := p.Leakage
		if c&1 == 1 {
			level += p.Backscatter
		}
		for s := 0; s < samplesPerChip; s++ {
			v := level
			if noise > 0 && rng != nil {
				v += rng.NormFloat64() * noise
			}
			out[idx] = v
			idx++
		}
	}
	return out
}

// DLSynthParams describes the reader's keyed carrier as seen by a tag's
// envelope detector.
type DLSynthParams struct {
	ChipSeconds float64 // duration of one PIE chip
	HighVolts   float64 // envelope during a "high" chip (resonant tone)
	LowLeak     float64 // envelope during a "low" chip (off-resonant tone leakage)
	RingTau     float64 // PZT ring-down time constant (s)
	NoiseRMS    float64
	// ReaderJitterSec models the reader's software PIE modulation
	// imprecision (0.1-0.3 ms per symbol, Sec. 6.3): each chip boundary
	// shifts by a uniform offset up to this magnitude.
	ReaderJitterSec float64
}

// SynthesizeDLEnvelope renders the tag-side envelope of a PIE chip
// stream at the given sample rate, including the exponential ring tail
// after each high-to-low transition.
func SynthesizeDLEnvelope(chips phy.Bits, fs float64, p DLSynthParams, rng *sim.Rand) []float64 {
	spc := p.ChipSeconds * fs
	n := int(float64(len(chips))*spc) + 1
	out := make([]float64, n)
	// Jittered boundaries in samples.
	bounds := make([]float64, len(chips)+1)
	for i := 1; i <= len(chips); i++ {
		j := 0.0
		if p.ReaderJitterSec > 0 && rng != nil {
			j = (rng.Float64()*2 - 1) * p.ReaderJitterSec * fs
		}
		bounds[i] = float64(i)*spc + j
	}
	level := 0.0
	chipIdx := 0
	for i := 0; i < n; i++ {
		for chipIdx < len(chips)-1 && float64(i) >= bounds[chipIdx+1] {
			chipIdx++
		}
		target := p.LowLeak
		if chips[chipIdx]&1 == 1 {
			target = p.HighVolts
		}
		if target >= level {
			level = target // drive rises immediately
		} else {
			// Ring-down: decay toward the low level.
			decay := math.Exp(-1 / (p.RingTau * fs))
			level = target + (level-target)*decay
		}
		v := level
		if p.NoiseRMS > 0 && rng != nil {
			v += rng.NormFloat64() * p.NoiseRMS
		}
		out[i] = v
	}
	return out
}
