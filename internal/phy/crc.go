package phy

// CRC-8 with the CCITT polynomial x^8 + x^2 + x + 1 (0x07), computed
// bit-serially over the frame's TID and payload fields — exactly the
// arithmetic a 12 kHz MSP430 can afford between interrupts.

// crcPoly is the CRC-8-CCITT generator polynomial.
const crcPoly = 0x07

// CRC8 computes the 8-bit CRC of a UL frame body, the 16 bits of TID
// and payload (MSB first, zero initial value).
func CRC8(body uint16) uint8 {
	return crc8Update(0, uint64(body), TIDBits+PayloadBits)
}

// crc8Update shifts the low n bits of v, most significant first,
// through the CRC register crc and returns the new register.
func crc8Update(crc uint8, v uint64, n int) uint8 {
	for i := n - 1; i >= 0; i-- {
		crc ^= uint8(v>>i&1) << 7
		if crc&0x80 != 0 {
			crc = crc<<1 ^ crcPoly
		} else {
			crc <<= 1
		}
	}
	return crc
}
