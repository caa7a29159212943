package phy

import "fmt"

// Pulse-interval encoding (PIE) for the downlink (Sec. 4.1). A PIE bit
// 0 is the chip pair "10" (one high chip, one low); a PIE bit 1 is the
// chip triple "110" (two high chips, one low). The tag decodes with two
// GPIO edge interrupts: a positive edge resets the 12 kHz timer, the
// negative edge reads it; the counted high duration discriminates 0
// from 1 against a 1.5-chip threshold.

// AppendPIE appends to dst the raw chips (1 = carrier on / resonant
// tone, 0 = carrier off / off-resonant tone) that PIE-encode the low n
// bits of word (n <= 64), most significant first.
func AppendPIE(dst Bits, word uint64, n int) Bits {
	for i := n - 1; i >= 0; i-- {
		if word>>i&1 == 1 {
			dst = append(dst, 1, 1, 0)
		} else {
			dst = append(dst, 1, 0)
		}
	}
	return dst
}

// PIEDecodeIntervals decodes at most 64 measured high-pulse durations,
// expressed in chip units — the quantity the tag's timer interrupt
// actually measures — into a word, the first pulse's bit most
// significant. Durations are classified by PIEDecodeInterval; one
// outside its window is an error, modeling the demodulator's rejection
// window.
func PIEDecodeIntervals(highChips []float64) (uint64, error) {
	if len(highChips) > 64 {
		return 0, fmt.Errorf("phy: %d PIE intervals do not fit a 64-bit word", len(highChips))
	}
	var word uint64
	for i, d := range highChips {
		bit, ok := PIEDecodeInterval(d)
		if !ok {
			return 0, fmt.Errorf("phy: PIE interval %v chips at symbol %d outside decode window", d, i)
		}
		word = word<<1 | uint64(bit)
	}
	return word, nil
}

// PIEDecodeInterval classifies one high-pulse duration, in chips:
// (0.5, 1.5] chips is a 0, (1.5, 2.5] a 1, and ok is false outside
// (0.5, 2.5]. The tag's falling-edge interrupt calls it once per pulse.
func PIEDecodeInterval(highChips float64) (bit byte, ok bool) {
	switch {
	case highChips > 0.5 && highChips <= 1.5:
		return 0, true
	case highChips > 1.5 && highChips <= 2.5:
		return 1, true
	}
	return 0, false
}
