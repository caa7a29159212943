package phy

import "fmt"

// FM0 line coding for the uplink (Sec. 4.1). Each data bit occupies two
// raw chips. The level always inverts at a bit boundary; a data bit 0
// additionally inverts mid-bit. In the paper's formulation: raw chip
// pairs 10/01 encode FM0 bit 0 (halves differ), pairs 00/11 encode FM0
// bit 1 (halves equal). The mandatory boundary transition gives the
// reader a self-clocking signal even through the BiW's flutter.

// FM0Encode converts data bits into raw chips. The initial chip level
// before the first boundary inversion is initLevel (0 or 1); the first
// emitted chip is its inverse. The returned slice has 2*len(data)
// chips.
func FM0Encode(data Bits, initLevel byte) Bits {
	out := make(Bits, 0, 2*len(data))
	level := initLevel & 1
	for _, bit := range data {
		level ^= 1 // boundary inversion, always
		if bit&1 == 1 {
			out = append(out, level, level)
		} else {
			out = append(out, level, level^1)
			level ^= 1 // mid-bit inversion leaves us at the new level
		}
	}
	return out
}

// FM0Violation describes a chip stream that breaks the FM0 boundary
// invariant, which real decoders use both for error detection and for
// preamble delimiting.
type FM0Violation struct {
	ChipIndex int
}

func (v *FM0Violation) Error() string {
	return fmt.Sprintf("phy: FM0 boundary violation at chip %d", v.ChipIndex)
}

// FM0Decode converts raw chips back to data bits. initLevel must match
// the encoder's. It returns an *FM0Violation error if a bit boundary
// lacks the mandatory transition, identifying the offending chip.
// The chip count must be even.
func FM0Decode(chips Bits, initLevel byte) (Bits, error) {
	return AppendFM0Decode(make(Bits, 0, len(chips)/2), chips, initLevel)
}

// AppendFM0Decode is FM0Decode appending the data bits to dst, so a
// receiver that keeps its frame buffer decodes without allocating. On
// error it returns nil and the error FM0Decode gives. Decoding the
// complement of chips from initLevel is decoding chips from the
// complement of initLevel.
func AppendFM0Decode(dst, chips Bits, initLevel byte) (Bits, error) {
	if len(chips)%2 != 0 {
		return nil, fmt.Errorf("phy: FM0 chip count %d is odd", len(chips))
	}
	level := initLevel & 1
	for i := 0; i < len(chips); i += 2 {
		first, second := chips[i]&1, chips[i+1]&1
		if first == level {
			return nil, &FM0Violation{ChipIndex: i}
		}
		if first == second {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
		level = second
	}
	return dst, nil
}
