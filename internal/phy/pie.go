package phy

import "fmt"

// Pulse-interval encoding (PIE) for the downlink (Sec. 4.1). A PIE bit
// 0 is the chip pair "10" (one high chip, one low); a PIE bit 1 is the
// chip triple "110" (two high chips, one low). The tag decodes with two
// GPIO edge interrupts: a positive edge resets the 12 kHz timer, the
// negative edge reads it; the counted high duration discriminates 0
// from 1 against a 1.5-chip threshold.

// PIEEncode converts data bits to raw chips (1 = carrier on / resonant
// tone, 0 = carrier off / off-resonant tone).
func PIEEncode(data Bits) Bits {
	out := make(Bits, 0, 3*len(data))
	for _, bit := range data {
		if bit&1 == 1 {
			out = append(out, 1, 1, 0)
		} else {
			out = append(out, 1, 0)
		}
	}
	return out
}

// PIEDecodeIntervals decodes from measured high-pulse durations
// expressed in chip units — the quantity the tag's timer interrupt
// actually measures. Durations are classified against the 1.5-chip
// threshold; anything outside (0.5, 2.5] chips is an error, modeling
// the demodulator's rejection window.
func PIEDecodeIntervals(highChips []float64) (Bits, error) {
	out := make(Bits, 0, len(highChips))
	for i, d := range highChips {
		bit, ok := PIEDecodeInterval(d)
		if !ok {
			return nil, fmt.Errorf("phy: PIE interval %v chips at symbol %d outside decode window", d, i)
		}
		out = append(out, bit)
	}
	return out, nil
}

// PIEDecodeInterval classifies one high-pulse duration, in chips, the
// way PIEDecodeIntervals does; ok is false outside (0.5, 2.5] chips.
// The tag's falling-edge interrupt calls it once per pulse.
func PIEDecodeInterval(highChips float64) (bit byte, ok bool) {
	switch {
	case highChips > 0.5 && highChips <= 1.5:
		return 0, true
	case highChips > 1.5 && highChips <= 2.5:
		return 1, true
	}
	return 0, false
}
