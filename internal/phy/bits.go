// Package phy implements ARACHNET's physical-layer framing (Sec. 4 of
// the paper): FM0 line coding for the uplink, pulse-interval encoding
// (PIE) for the downlink, the compact packet structures (32-bit UL
// frame, 10-bit DL beacon), the CRC-8 integrity check, and the bit-rate
// tables derived from the tag's 12 kHz MCU clock dividers.
package phy

import "strings"

// Bits is a sequence of binary symbols, one byte per bit (0 or 1).
// The unpacked representation keeps the modulation and interrupt-level
// code readable; frames here are tens of bits, not kilobytes.
type Bits []byte

// NewBitsFromUint extracts the low n bits of v, most significant first.
func NewBitsFromUint(v uint64, n int) Bits {
	b := make(Bits, n)
	for i := 0; i < n; i++ {
		b[i] = byte(v >> (n - 1 - i) & 1)
	}
	return b
}

// Uint packs the bits (MSB first) into an integer. It panics if the
// slice is longer than 64 bits.
func (b Bits) Uint() uint64 {
	if len(b) > 64 {
		//lint:allow panic-hygiene documented API contract mirroring strconv-style width panics
		panic("phy: Bits.Uint on more than 64 bits")
	}
	var v uint64
	for _, bit := range b {
		v = v<<1 | uint64(bit&1)
	}
	return v
}

// String renders the bits as a compact 0/1 string.
func (b Bits) String() string {
	var sb strings.Builder
	for _, bit := range b {
		if bit == 0 {
			sb.WriteByte('0')
		} else {
			sb.WriteByte('1')
		}
	}
	return sb.String()
}

// Equal reports whether two bit strings are identical.
func (b Bits) Equal(o Bits) bool {
	if len(b) != len(o) {
		return false
	}
	for i := range b {
		if b[i]&1 != o[i]&1 {
			return false
		}
	}
	return true
}

// Invert returns the bitwise complement.
func (b Bits) Invert() Bits {
	out := make(Bits, len(b))
	for i, bit := range b {
		out[i] = bit ^ 1
	}
	return out
}

// Append returns b with more bit strings concatenated.
func (b Bits) Append(more ...Bits) Bits {
	out := b
	for _, m := range more {
		out = append(out, m...)
	}
	return out
}
