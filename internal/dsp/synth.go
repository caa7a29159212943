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

// ULChipMeans appends to dst the chip means that AppendChipMeans at
// samplesPerChip appends for SynthesizeULBaseband(chips,
// samplesPerChip, p, rng), without building the samples: each chip sums
// its noisy samples in order and divides by samplesPerChip. Chip means
// and the trailing rng state are bit-identical to that pair. It is
// ULDecoder's exact path.
//
//alloc:hot exact per-packet uplink synthesis and integrate-and-dump of fig12b
func ULChipMeans(dst []float64, chips phy.Bits, samplesPerChip int, p ULSynthParams, rng *sim.Rand) []float64 {
	noise := p.NoiseRMS * math.Sqrt(float64(samplesPerChip)*p.ChipRate/p.Fs)
	noisy := noise > 0 && rng != nil
	for _, c := range chips {
		level := p.Leakage
		if c&1 == 1 {
			level += p.Backscatter
		}
		acc := 0.0
		for s := 0; s < samplesPerChip; s++ {
			v := level
			if noisy {
				v += rng.NormFloat64() * noise
			}
			acc += v
		}
		dst = append(dst, acc/float64(samplesPerChip))
	}
	return dst
}

// ULDecoder decodes uplink packets straight from their chips, the way
// the Fig. 12(b) loss count needs them. It keeps its buffers between
// packets, so a decoder that is reused does not allocate.
type ULDecoder struct {
	mid, rad  []float64 // certified chip means: mid ± rad
	hard      phy.Bits
	soft      []float64 // exact chip means, for a packet too close to call
	fallbacks int       // packets decoded by the exact kernel
}

// Decode returns what DecodeULFrame(ULChipMeans(nil, chips,
// samplesPerChip, p, rng)) returns, and leaves rng in the state that
// pair leaves it in.
//
// The slicer reads only the sign of each chip mean against the
// midpoint of the packet's min and max chip means, so a bound on every
// mean that fixes every sign decides the packet. Decode draws each
// sample's noise as a bracket (sim.Rand.NormBracket, the same words as
// NormFloat64) and builds each chip mean as mᵢ ± rᵢ (sliceCertified
// gives the rule). When every chip's bit is certain the hard chips go
// to the receive chain of DecodeULFrame; otherwise Decode rewinds rng
// and runs ULChipMeans and DecodeULFrame.
//
//alloc:hot per-packet uplink synthesis and decode of fig12b
func (d *ULDecoder) Decode(chips phy.Bits, samplesPerChip int, p ULSynthParams, rng *sim.Rand) (phy.ULPacket, error) {
	noise := p.NoiseRMS * math.Sqrt(float64(samplesPerChip)*p.ChipRate/p.Fs)
	if noise > 0 && rng != nil {
		saved := *rng
		if d.certify(chips, samplesPerChip, p, noise, rng) {
			return decodeULChips(d.hard)
		}
		*rng = saved
		d.fallbacks++
	}
	d.soft = ULChipMeans(d.soft[:0], chips, samplesPerChip, p, rng)
	return DecodeULFrame(d.soft)
}

// certify synthesizes the bracketed chip means of a packet and slices
// them into d.hard. It reports false if some chip is too close to the
// threshold to call; rng has then still advanced past every draw.
func (d *ULDecoder) certify(chips phy.Bits, samplesPerChip int, p ULSynthParams, noise float64, rng *sim.Rand) bool {
	n := float64(samplesPerChip)
	d.mid, d.rad = d.mid[:0], d.rad[:0]
	for _, c := range chips {
		level := p.Leakage
		if c&1 == 1 {
			level += p.Backscatter
		}
		zs, rs := 0.0, 0.0
		for s := 0; s < samplesPerChip; s++ {
			z, r := rng.NormBracket()
			zs += z
			rs += r
		}
		d.mid = append(d.mid, level+noise*zs/n)
		d.rad = append(d.rad, noise*rs/n)
	}
	// Each exact and bracketed mean is a sum of samplesPerChip terms of
	// magnitude at most |level| + NormBound·noise, rounded a few times
	// per term; a handful of such errors reach each decision. The
	// slack is 32 times that count in units of 2⁻⁵³.
	slack := float64(samplesPerChip+4) * 0x1p-48 *
		(math.Abs(p.Leakage) + math.Abs(p.Backscatter) + (sim.NormBound+1)*noise)
	var ok bool
	d.hard, ok = sliceCertified(d.hard[:0], d.mid, d.rad, slack)
	return ok
}

// sliceCertified slices chip means known only as mid[i] ± rad[i] the
// way SliceChips slices exact ones, appending the hard chips to dst.
// The exact threshold lies within the largest radius of the midpoint
// th of the bracket centres' min and max, so chip i's bit is certain
// when |mid[i] − th| > rad[i] + r_max + slack; slack bounds the float
// rounding of both computations. ok is false if some chip's bit is not
// certain.
func sliceCertified(dst phy.Bits, mid, rad []float64, slack float64) (_ phy.Bits, ok bool) {
	lo, hi, rmax := math.Inf(1), math.Inf(-1), 0.0
	for i, m := range mid {
		lo, hi, rmax = min(lo, m), max(hi, m), max(rmax, rad[i])
	}
	th := (lo + hi) / 2
	for i, m := range mid {
		if math.Abs(m-th) <= rad[i]+rmax+slack {
			return dst, false
		}
		var b byte
		if m > th {
			b = 1
		}
		dst = append(dst, b)
	}
	return dst, true
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

// DLPulses renders the tag-side envelope of a PIE chip stream at the
// given sample rate (the exponential ring tail after each high-to-low
// transition, the reader's boundary jitter and additive noise), runs it
// through the comparator trig and appends to dst the width of every
// high pulse, in chips. The trigger's state carries over between
// calls; a pulse still high when the stream ends is not reported.
//
// The noise is exact but mostly not computed. The hysteresis means
// only one threshold can flip trig in each state: High while low, Low
// while high. A normal draw is at most sim.NormBound in magnitude, so
// when the envelope sits more than NormBound·NoiseRMS from that
// threshold the comparator's output is already decided, and the sample
// only advances rng past its draw (SkipNormFloat64). Every other
// sample draws the exact normal and goes through trig.ProcessSample.
// Pulses and the trailing rng state equal those of synthesizing the
// whole envelope and feeding every sample to the trigger.
//
//alloc:hot per-beacon downlink front end of the dl-scheme Monte Carlo
func DLPulses(dst []float64, chips phy.Bits, fs float64, p DLSynthParams, trig *SchmittTrigger, rng *sim.Rand) []float64 {
	spc := p.ChipSeconds * fs
	n := int(float64(len(chips))*spc) + 1
	// The stream holds every chip's boundary jitter ahead of the first
	// noise draw. Read the jitter through a copy as the boundaries come
	// up, and move rng past it now.
	var jit *sim.Rand
	if p.ReaderJitterSec > 0 && rng != nil {
		j := *rng
		jit = &j
		for range chips {
			rng.Uint64()
		}
	}
	next := chipBoundary(1, spc, fs, p, jit)
	decay := math.Exp(-1 / (p.RingTau * fs))
	noisy := p.NoiseRMS > 0 && rng != nil
	margin := sim.NormBound * p.NoiseRMS
	level := 0.0
	chipIdx := 0
	high := false // comparator output at the previous sample
	riseAt := 0
	for i := 0; i < n; i++ {
		for chipIdx < len(chips)-1 && float64(i) >= next {
			chipIdx++
			next = chipBoundary(chipIdx+1, spc, fs, p, jit)
		}
		target := p.LowLeak
		if chips[chipIdx]&1 == 1 {
			target = p.HighVolts
		}
		if target >= level {
			level = target // drive rises immediately
		} else {
			// Ring-down: decay toward the low level.
			level = target + (level-target)*decay
		}
		var now bool
		if noisy && (trig.state && level-margin > trig.Low || !trig.state && level+margin < trig.High) {
			rng.SkipNormFloat64()
			now = trig.state
		} else {
			v := level
			if noisy {
				v += rng.NormFloat64() * p.NoiseRMS
			}
			now = trig.ProcessSample(v)
		}
		if now && !high {
			riseAt = i
		}
		if !now && high {
			dst = append(dst, float64(i-riseAt)/spc)
		}
		high = now
	}
	return dst
}

// chipBoundary is the sample index where chip k starts, shifted by the
// reader's jitter drawn from jit (nil: no jitter).
func chipBoundary(k int, spc, fs float64, p DLSynthParams, jit *sim.Rand) float64 {
	j := 0.0
	if jit != nil {
		j = (jit.Float64()*2 - 1) * p.ReaderJitterSec * fs
	}
	return float64(k)*spc + j
}
