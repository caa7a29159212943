// Package phy implements ARACHNET's physical-layer framing (Sec. 4 of
// the paper): FM0 line coding for the uplink, pulse-interval encoding
// (PIE) for the downlink, the compact packet structures (32-bit UL
// frame, 10-bit DL beacon), the CRC-8 integrity check, and the bit-rate
// tables derived from the tag's 12 kHz MCU clock dividers.
//
// A frame is a word: the UL frame a uint32 and the beacon a uint16,
// most significant bit first on the air. Bits holds only what the line
// codes put on the channel, one chip per byte.
package phy

import "strings"

// Bits is a chip stream, one byte per chip (0 or 1): the levels a line
// code drives, chip by chip.
type Bits []byte

// String renders the chips as a compact 0/1 string.
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
