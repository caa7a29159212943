package phy

import "fmt"

// FM0 line coding for the uplink (Sec. 4.1). Each data bit occupies two
// raw chips. The level always inverts at a bit boundary; a data bit 0
// additionally inverts mid-bit. In the paper's formulation: raw chip
// pairs 10/01 encode FM0 bit 0 (halves differ), pairs 00/11 encode FM0
// bit 1 (halves equal). The mandatory boundary transition gives the
// reader a self-clocking signal even through the BiW's flutter.

// AppendFM0 appends to dst the 2n chips that FM0-encode the low n bits
// of word (n <= 64), most significant first. The chip level before the
// first boundary inversion is initLevel (0 or 1); the first appended
// chip is its inverse. The level after a word is its last chip, which
// is initLevel when the word has an even number of one bits.
//
//alloc:hot encodes every uplink frame; appends only grow dst
func AppendFM0(dst Bits, word uint64, n int, initLevel byte) Bits {
	level := initLevel & 1
	for i := n - 1; i >= 0; i-- {
		level ^= 1 // boundary inversion, always
		if word>>i&1 == 1 {
			dst = append(dst, level, level)
		} else {
			dst = append(dst, level, level^1)
			level ^= 1 // mid-bit inversion leaves us at the new level
		}
	}
	return dst
}

// FM0Violation is the index of the chip at which a chip stream breaks
// the FM0 boundary invariant, which real decoders use both for error
// detection and for preamble delimiting. The index is below 128, and a
// one-byte value converts to an error without allocating, so a failed
// decode costs no garbage.
type FM0Violation uint8

func (v FM0Violation) Error() string {
	return fmt.Sprintf("phy: FM0 boundary violation at chip %d", v)
}

// FM0Decode decodes an even number of chips, at most 128, into the word
// AppendFM0 encoded: the first data bit is the most significant.
// initLevel must match the encoder's. It returns an FM0Violation error
// if a bit boundary lacks the mandatory transition, identifying the
// offending chip. Decoding the complement of chips from initLevel is
// decoding chips from the complement of initLevel.
func FM0Decode(chips Bits, initLevel byte) (uint64, error) {
	if len(chips)%2 != 0 || len(chips) > 128 {
		return 0, fmt.Errorf("phy: FM0 chip count %d is odd or above 128", len(chips))
	}
	var word uint64
	level := initLevel & 1
	for i := 0; i < len(chips); i += 2 {
		first, second := chips[i]&1, chips[i+1]&1
		if first == level {
			return 0, FM0Violation(i)
		}
		word <<= 1
		if first == second {
			word |= 1
		}
		level = second
	}
	return word, nil
}
