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

// AppendChipMeans integrates samples over each chip period of
// samplesPerChip (>= 2) samples and appends the mean to dst — the
// optimal (matched) detector for rectangular chips. Chip boundaries
// are tracked in absolute sample coordinates, so fractional
// samples-per-chip rates stay aligned over arbitrarily long frames (no
// cumulative drift); a trailing partial chip is dropped.
//
//alloc:hot per-phase integrate-and-dump of the waveform slot decoder
func AppendChipMeans(dst, samples []float64, samplesPerChip float64) []float64 {
	acc, count := 0.0, 0
	consumed, boundary := 0.0, samplesPerChip
	for _, x := range samples {
		acc += x
		count++
		consumed++
		if consumed >= boundary-1e-9 {
			dst = append(dst, acc/float64(count))
			acc, count = 0, 0
			boundary += samplesPerChip
		}
	}
	return dst
}

// SliceChips converts soft chip values into hard bits around an
// adaptive threshold: the midpoint of the observed min/max. It returns
// the bits and the threshold used.
func SliceChips(soft []float64) (phy.Bits, float64) {
	if len(soft) == 0 {
		return nil, 0
	}
	return appendSliced(make(phy.Bits, 0, len(soft)), soft)
}

// appendSliced is SliceChips appending the bits to dst.
func appendSliced(dst phy.Bits, soft []float64) (phy.Bits, float64) {
	if len(soft) == 0 {
		return dst, 0
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
	for _, v := range soft {
		var b byte
		if v > th {
			b = 1
		}
		dst = append(dst, b)
	}
	return dst, th
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

// decodeULFromBaseband recovers a UL frame from baseband magnitude
// samples with unknown symbol timing: it sweeps fractional chip-phase
// offsets (an eighth of a chip at a time), integrates the chips at
// each candidate phase, and returns the first clean decode. This is the
// symbol-timing synchronization step of the reader's receive chain. It
// works in sc's buffers.
func (sc *SlotScratch) decodeULFromBaseband(mags []float64, samplesPerChip float64) (phy.ULPacket, error) {
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
		sc.soft = AppendChipMeans(sc.soft[:0], mags[off:], samplesPerChip)
		sc.hard, _ = appendSliced(sc.hard[:0], sc.soft)
		pkt, err := decodeULChips(sc.hard)
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
