package phy

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// PIEDecode converts raw chips back to data bits. It tolerates a
// truncated trailing low chip (transmitters may end the frame at the
// falling edge) but rejects malformed pulses.
func PIEDecode(chips Bits) (Bits, error) {
	out := Bits{}
	i := 0
	for i < len(chips) {
		if chips[i]&1 != 1 {
			return nil, fmt.Errorf("phy: PIE symbol at chip %d does not start high", i)
		}
		high := 0
		for i < len(chips) && chips[i]&1 == 1 {
			high++
			i++
		}
		switch high {
		case 1:
			out = append(out, 0)
		case 2:
			out = append(out, 1)
		default:
			return nil, fmt.Errorf("phy: PIE pulse of %d chips is invalid", high)
		}
		if i < len(chips) {
			i++ // consume the single low separator chip
		}
	}
	return out, nil
}

func randomBits(raw []byte) Bits {
	b := make(Bits, len(raw))
	for i, v := range raw {
		b[i] = v & 1
	}
	return b
}

// wordBits lists the low n bits of word, most significant first: the
// order the line codes send them in.
func wordBits(word uint64, n int) Bits {
	b := make(Bits, n)
	for i := range b {
		b[i] = byte(word >> (n - 1 - i) & 1)
	}
	return b
}

// lowBits keeps the low n bits of word.
func lowBits(word uint64, n int) uint64 {
	if n >= 64 {
		return word
	}
	return word & (1<<n - 1)
}

func TestFM0PaperMapping(t *testing.T) {
	// Sec. 4.1: chip pairs 10/01 are FM0 bit 0; 00/11 are FM0 bit 1.
	chips := AppendFM0(nil, 0, 1, 0)
	if chips[0] == chips[1] {
		t.Errorf("bit 0 encoded as equal halves: %v", chips)
	}
	chips = AppendFM0(nil, 1, 1, 0)
	if chips[0] != chips[1] {
		t.Errorf("bit 1 encoded as differing halves: %v", chips)
	}
	// Most significant bit first, and bits above n are not sent.
	if got, want := AppendFM0(nil, 0b110, 2, 0), AppendFM0(AppendFM0(nil, 1, 1, 0), 0, 1, 1); !bytes.Equal(got, want) {
		t.Errorf("AppendFM0(0b110, 2) = %v, want %v", got, want)
	}
}

func TestFM0BoundaryInvariant(t *testing.T) {
	// The level must invert at every bit boundary, for any data.
	f := func(word uint64, n uint8, init byte) bool {
		bits := int(n % 65)
		chips := AppendFM0(Bits{7}, word, bits, init&1)[1:]
		if len(chips) != 2*bits {
			return false
		}
		level := init & 1
		for i := 0; i < len(chips); i += 2 {
			if chips[i] == level { // no transition at boundary
				return false
			}
			level = chips[i+1]
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFM0RoundTrip(t *testing.T) {
	f := func(word uint64, n uint8, init byte) bool {
		bits := int(n % 65)
		got, err := FM0Decode(AppendFM0(nil, word, bits, init&1), init&1)
		return err == nil && got == lowBits(word, bits)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Decoding the complement of a chip stream from one initial level is
// decoding the stream from the other: same word, or the same
// violation. The reader relies on it to decode an inverted frame.
func TestFM0DecodeComplement(t *testing.T) {
	f := func(word uint64, n uint8, init byte, flip uint16) bool {
		chips := AppendFM0(nil, word, int(n%65), init&1)
		if len(chips) > 0 {
			chips[int(flip)%len(chips)] ^= 1 // sometimes breaks a boundary
		}
		inv := make(Bits, len(chips))
		for i, c := range chips {
			inv[i] = c ^ 1
		}
		want, wantErr := FM0Decode(inv, init&1)
		got, err := FM0Decode(chips, init&1^1)
		return fmt.Sprint(err) == fmt.Sprint(wantErr) && got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFM0DecodeViolation(t *testing.T) {
	chips := AppendFM0(nil, 0b1011, 4, 0)
	// Destroy the boundary transition of the third bit.
	chips[4] = chips[3]
	_, err := FM0Decode(chips, 0)
	var v FM0Violation
	if !errors.As(err, &v) {
		t.Fatalf("expected FM0Violation, got %v", err)
	}
	if v != 4 {
		t.Errorf("violation at chip %d, want 4", v)
	}
	if v.Error() == "" {
		t.Error("empty violation message")
	}
	// A failed decode allocates nothing: the violation is a one-byte
	// value, not a pointer.
	if a := testing.AllocsPerRun(100, func() { _, err = FM0Decode(chips, 0) }); a != 0 {
		t.Errorf("failed FM0Decode allocates %v times, want 0", a)
	}
}

func TestFM0DecodeOddLength(t *testing.T) {
	if _, err := FM0Decode(Bits{1, 0, 1}, 0); err == nil {
		t.Error("expected error for odd chip count")
	}
	// 65 data bits do not fit the word.
	if _, err := FM0Decode(AppendFM0(AppendFM0(nil, 0, 64, 0), 0, 1, 0), 0); err == nil {
		t.Error("expected error for 130 chips")
	}
}

func TestFM0WrongInitLevelDetected(t *testing.T) {
	chips := AppendFM0(nil, 0b1101, 4, 0)
	if _, err := FM0Decode(chips, 1); err == nil {
		t.Error("decoding with wrong initial level should violate at chip 0")
	}
}

func TestPIEPaperMapping(t *testing.T) {
	// Sec. 4.1: PIE bit 0 = "10", bit 1 = "110".
	if got := AppendPIE(nil, 0, 1); !bytes.Equal(got, Bits{1, 0}) {
		t.Errorf("PIE(0) = %v", got)
	}
	if got := AppendPIE(nil, 1, 1); !bytes.Equal(got, Bits{1, 1, 0}) {
		t.Errorf("PIE(1) = %v", got)
	}
	// Most significant bit first, and bits above n are not sent.
	if got := AppendPIE(Bits{0}, 0b110, 2); !bytes.Equal(got, Bits{0, 1, 1, 0, 1, 0}) {
		t.Errorf("AppendPIE(0b110, 2) = %v", got)
	}
}

func TestPIERoundTrip(t *testing.T) {
	f := func(word uint64, n uint8) bool {
		bits := int(n % 65)
		decoded, err := PIEDecode(AppendPIE(nil, word, bits))
		return err == nil && bytes.Equal(decoded, wordBits(word, bits))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPIEDecodeErrors(t *testing.T) {
	// Starting low is malformed.
	if _, err := PIEDecode(Bits{0, 1}); err == nil {
		t.Error("expected error for low-start symbol")
	}
	// A three-chip-high pulse is invalid.
	if _, err := PIEDecode(Bits{1, 1, 1, 0}); err == nil {
		t.Error("expected error for overlong pulse")
	}
}

func TestPIEDecodeTruncatedTail(t *testing.T) {
	// The final low separator may be cut; decoding must still work.
	decoded, err := PIEDecode(Bits{1, 0, 1, 1}) // "0" then truncated "1"
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(decoded, Bits{0, 1}) {
		t.Errorf("decoded %v", decoded)
	}
}

func TestPIEDecodeIntervals(t *testing.T) {
	word, err := PIEDecodeIntervals([]float64{1.0, 2.0, 0.9, 2.2})
	if err != nil {
		t.Fatal(err)
	}
	if word != 0b0101 {
		t.Errorf("decoded %#b", word)
	}
	// Jitter within the window still decodes.
	word, err = PIEDecodeIntervals([]float64{1.45, 1.55})
	if err != nil {
		t.Fatal(err)
	}
	if word != 0b01 {
		t.Errorf("threshold classification wrong: %#b", word)
	}
	// Outside the rejection window fails.
	if _, err := PIEDecodeIntervals([]float64{0.3}); err == nil {
		t.Error("expected error below window")
	}
	if _, err := PIEDecodeIntervals([]float64{3.0}); err == nil {
		t.Error("expected error above window")
	}
	// 65 pulses do not fit the word.
	long := make([]float64, 65)
	for i := range long {
		long[i] = 1
	}
	if _, err := PIEDecodeIntervals(long); err == nil {
		t.Error("expected error for 65 intervals")
	}
}

// PIEDecodeInterval is the window rule of PIEDecodeIntervals, edges
// included: (0.5, 1.5] is a 0, (1.5, 2.5] a 1, anything else (NaN too)
// is rejected.
func TestPIEDecodeInterval(t *testing.T) {
	const rejected = 0xFF
	cases := []struct {
		chips float64
		want  byte
	}{
		{0.5, rejected}, {math.Nextafter(0.5, 1), 0}, {1.5, 0}, {math.Nextafter(1.5, 2), 1},
		{2.5, 1}, {math.Nextafter(2.5, 3), rejected}, {0, rejected}, {-1, rejected}, {math.NaN(), rejected},
	}
	for _, c := range cases {
		bit, ok := PIEDecodeInterval(c.chips)
		if !ok {
			bit = rejected
		}
		if bit != c.want {
			t.Errorf("PIEDecodeInterval(%v) = %#x, want %#x", c.chips, bit, c.want)
		}
		word, err := PIEDecodeIntervals([]float64{c.chips})
		if (err == nil) != ok || ok && word != uint64(bit) {
			t.Errorf("PIEDecodeIntervals([%v]) = %v, %v; scalar %#x", c.chips, word, err, bit)
		}
	}
}

func TestCRC8KnownVectors(t *testing.T) {
	// CRC-8/CCITT of "123456789" bytes is 0xF4 (the standard check
	// value), shifted through the same register CRC8 uses.
	var crc uint8
	for _, c := range []byte("123456789") {
		crc = crc8Update(crc, uint64(c), 8)
	}
	if crc != 0xF4 {
		t.Errorf("CRC8 check value = %#x, want 0xF4", crc)
	}
	if CRC8(0) != 0 {
		t.Error("CRC8 of a zero body should be 0")
	}
}

// UnmarshalUL's CRC check accepts exactly the CRC byte CRC8 computes:
// for every body, the right byte passes and every other byte fails.
func TestCRC8Check(t *testing.T) {
	for body := 0; body < 1<<16; body++ {
		frame := ULPreamble<<24 | uint32(body)<<8
		crc := CRC8(uint16(body))
		if _, err := UnmarshalUL(frame | uint32(crc)); err != nil {
			t.Fatalf("body %#04x with its CRC %#02x: %v", body, crc, err)
		}
		wrong := crc ^ (uint8(body) | 1) // a nonzero change, varied per body
		if _, err := UnmarshalUL(frame | uint32(wrong)); !errors.Is(err, ErrCRC) {
			t.Fatalf("body %#04x with CRC %#02x accepted: %v", body, wrong, err)
		}
	}
}

func TestCRC8DetectsSingleAndDoubleBitErrors(t *testing.T) {
	// DESIGN.md invariant: all single- and double-bit errors in a
	// 32-bit window are detected. The 24-bit body||CRC word is checked
	// for every flip pair.
	const body = 0b1011_0010_1110_0101
	word := uint32(body)<<8 | uint32(CRC8(body))
	verifies := func(w uint32) bool { return CRC8(uint16(w>>8)) == uint8(w) }
	for i := 0; i < 24; i++ {
		corrupted := word ^ 1<<i
		if verifies(corrupted) {
			t.Fatalf("single-bit error at %d undetected", i)
		}
		for j := i + 1; j < 24; j++ {
			if verifies(corrupted ^ 1<<j) {
				t.Fatalf("double-bit error at %d,%d undetected", i, j)
			}
		}
	}
}
