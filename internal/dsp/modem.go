package dsp

import (
	"errors"
	"fmt"

	"repro/internal/phy"
)

// Uplink demodulation: from baseband envelope samples to a decoded UL
// frame. The flow mirrors the paper's reader software: per-chip
// integrate-and-dump, adaptive slicing, FM0 preamble correlation,
// FM0 decode and CRC check.

// ChipSampler integrates the baseband signal over each chip period and
// dumps the mean — the optimal (matched) detector for rectangular
// chips. Chip boundaries are tracked in absolute sample coordinates,
// so fractional samples-per-chip rates stay aligned over arbitrarily
// long frames (no cumulative drift).
type ChipSampler struct {
	SamplesPerChip float64
	acc            float64
	count          int
	consumed       float64 // total samples seen
	boundary       float64 // absolute sample index closing the current chip
}

// NewChipSampler returns a sampler; samplesPerChip must be >= 2.
func NewChipSampler(samplesPerChip float64) (*ChipSampler, error) {
	if samplesPerChip < 2 {
		return nil, fmt.Errorf("dsp: %v samples per chip is too few", samplesPerChip)
	}
	return &ChipSampler{SamplesPerChip: samplesPerChip, boundary: samplesPerChip}, nil
}

// Process consumes baseband samples and returns the chip-rate means
// completed within this block.
func (c *ChipSampler) Process(block []float64) []float64 {
	var out []float64
	for _, x := range block {
		c.acc += x
		c.count++
		c.consumed++
		if c.consumed >= c.boundary-1e-9 {
			out = append(out, c.acc/float64(c.count))
			c.acc, c.count = 0, 0
			c.boundary += c.SamplesPerChip
		}
	}
	return out
}

// SliceChips converts soft chip values into hard bits around an
// adaptive threshold: the midpoint of the observed min/max. It returns
// the bits and the threshold used.
func SliceChips(soft []float64) (phy.Bits, float64) {
	if len(soft) == 0 {
		return nil, 0
	}
	lo, hi := soft[0], soft[0]
	for _, v := range soft {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	th := (lo + hi) / 2
	bits := make(phy.Bits, len(soft))
	for i, v := range soft {
		if v > th {
			bits[i] = 1
		}
	}
	return bits, th
}

// ulPreambleChips is the FM0 chip expansion of the UL preamble with the
// transmitter's initial level 0.
var ulPreambleChips = phy.AppendFM0(nil, uint64(phy.ULPreamble), phy.ULPreambleBits, 0)

// ErrNoPreamble is returned when no UL preamble is found in the stream.
var ErrNoPreamble = errors.New("dsp: no UL preamble found")

// FindULFrame scans hard chips for the FM0-encoded UL preamble
// (tolerating maxChipErrors mismatches, in either polarity) and returns
// the index of the first frame chip. Polarity inversion happens when
// the slicer locks onto the complementary level.
func FindULFrame(chips phy.Bits, maxChipErrors int) (start int, inverted bool, err error) {
	n := len(ulPreambleChips)
	for off := 0; off+2*phy.ULFrameBits <= len(chips); off++ {
		direct, inverse := 0, 0
		for i := 0; i < n; i++ {
			if chips[off+i]&1 == ulPreambleChips[i] {
				direct++
			} else {
				inverse++
			}
		}
		if n-direct <= maxChipErrors {
			return off, false, nil
		}
		if n-inverse <= maxChipErrors {
			return off, true, nil
		}
	}
	return 0, false, ErrNoPreamble
}

// DecodeULFromBaseband recovers a UL frame from baseband magnitude
// samples with unknown symbol timing: it sweeps fractional chip-phase
// offsets (an eighth of a chip at a time), runs the chip sampler at
// each candidate phase, and returns the first clean decode. This is the
// symbol-timing synchronization step of the reader's receive chain.
func DecodeULFromBaseband(mags []float64, samplesPerChip float64) (phy.ULPacket, error) {
	if samplesPerChip < 2 {
		return phy.ULPacket{}, fmt.Errorf("dsp: %v samples per chip is too few", samplesPerChip)
	}
	step := samplesPerChip / 8
	if step < 1 {
		step = 1
	}
	var lastErr error = ErrNoPreamble
	for phase := 0.0; phase < samplesPerChip; phase += step {
		off := int(phase)
		if off >= len(mags) {
			break
		}
		sampler, err := NewChipSampler(samplesPerChip)
		if err != nil {
			return phy.ULPacket{}, err
		}
		pkt, err := DecodeULFrame(sampler.Process(mags[off:]))
		if err == nil {
			return pkt, nil
		}
		lastErr = err
	}
	return phy.ULPacket{}, lastErr
}

// DecodeULFrame slices, synchronizes and decodes one UL frame from soft
// chip values. It applies the full receive chain error handling: frame
// alignment, FM0 boundary checking and CRC verification.
func DecodeULFrame(soft []float64) (phy.ULPacket, error) {
	chips, _ := SliceChips(soft)
	return decodeULChips(chips)
}

// decodeULChips is the receive chain after the slicer: it finds the
// frame in hard chips, FM0-decodes it into a word (an inverted frame is
// decoded from the opposite initial level instead of being copied) and
// checks and parses it.
func decodeULChips(chips phy.Bits) (phy.ULPacket, error) {
	start, inverted, err := FindULFrame(chips, 1)
	if err != nil {
		return phy.ULPacket{}, err
	}
	frameChips := chips[start:]
	if len(frameChips) < 2*phy.ULFrameBits {
		return phy.ULPacket{}, fmt.Errorf("dsp: truncated frame: %d chips", len(frameChips))
	}
	var initLevel byte
	if inverted {
		initLevel = 1
	}
	frame, err := phy.FM0Decode(frameChips[:2*phy.ULFrameBits], initLevel)
	if err != nil {
		return phy.ULPacket{}, err
	}
	return phy.UnmarshalUL(uint32(frame))
}
