package phy

// CRC-8 with the CCITT polynomial x^8 + x^2 + x + 1 (0x07), computed
// bit-serially over the frame's TID and payload fields — exactly the
// arithmetic a 12 kHz MSP430 can afford between interrupts.

// crcPoly is the CRC-8-CCITT generator polynomial.
const crcPoly = 0x07

// CRC8 computes the 8-bit CRC of the given bits (MSB first, zero
// initial value).
func CRC8(bits Bits) uint8 {
	return crc8Update(0, bits)
}

// crc8Update shifts bits through the CRC register crc and returns the
// new register, so a CRC over concatenated strings needs no copy.
func crc8Update(crc uint8, bits Bits) uint8 {
	for _, b := range bits {
		crc ^= (b & 1) << 7
		if crc&0x80 != 0 {
			crc = crc<<1 ^ crcPoly
		} else {
			crc <<= 1
		}
	}
	return crc
}

// CheckCRC8 reports whether data followed by an 8-bit CRC field
// verifies: CRC8 over the concatenation of data and crc bits is zero.
func CheckCRC8(data, crc Bits) bool {
	if len(crc) != 8 {
		return false
	}
	return crc8Update(crc8Update(0, data), crc) == 0
}
