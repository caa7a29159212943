package phy

import (
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

func TestFM0PaperMapping(t *testing.T) {
	// Sec. 4.1: chip pairs 10/01 are FM0 bit 0; 00/11 are FM0 bit 1.
	chips := FM0Encode(Bits{0}, 0)
	if chips[0] == chips[1] {
		t.Errorf("bit 0 encoded as equal halves: %v", chips)
	}
	chips = FM0Encode(Bits{1}, 0)
	if chips[0] != chips[1] {
		t.Errorf("bit 1 encoded as differing halves: %v", chips)
	}
}

func TestFM0BoundaryInvariant(t *testing.T) {
	// The level must invert at every bit boundary, for any data.
	f := func(raw []byte, init byte) bool {
		data := randomBits(raw)
		chips := FM0Encode(data, init&1)
		if len(chips) != 2*len(data) {
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
	f := func(raw []byte, init byte) bool {
		data := randomBits(raw)
		chips := FM0Encode(data, init&1)
		decoded, err := FM0Decode(chips, init&1)
		return err == nil && decoded.Equal(data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// AppendFM0Decode appends to dst, and decoding the complement of a
// chip stream from one initial level is decoding the stream from the
// other: same bits, or the same violation.
func TestAppendFM0DecodeComplement(t *testing.T) {
	f := func(raw []byte, init byte, flip uint16) bool {
		chips := FM0Encode(randomBits(raw), init&1)
		if len(chips) > 0 {
			chips[int(flip)%len(chips)] ^= 1 // sometimes breaks a boundary
		}
		want, wantErr := FM0Decode(chips.Invert(), init&1)
		got, err := AppendFM0Decode(Bits{1, 0, 1}, chips, init&1^1)
		if wantErr != nil || err != nil {
			return fmt.Sprint(err) == fmt.Sprint(wantErr)
		}
		return got[:3].Equal(Bits{1, 0, 1}) && got[3:].Equal(want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFM0DecodeViolation(t *testing.T) {
	data := Bits{1, 0, 1, 1}
	chips := FM0Encode(data, 0)
	// Destroy the boundary transition of the third bit.
	chips[4] = chips[3]
	_, err := FM0Decode(chips, 0)
	var v *FM0Violation
	if !errors.As(err, &v) {
		t.Fatalf("expected FM0Violation, got %v", err)
	}
	if v.ChipIndex != 4 {
		t.Errorf("violation at chip %d, want 4", v.ChipIndex)
	}
	if v.Error() == "" {
		t.Error("empty violation message")
	}
}

func TestFM0DecodeOddLength(t *testing.T) {
	if _, err := FM0Decode(Bits{1, 0, 1}, 0); err == nil {
		t.Error("expected error for odd chip count")
	}
}

func TestFM0WrongInitLevelDetected(t *testing.T) {
	data := Bits{1, 1, 0, 1}
	chips := FM0Encode(data, 0)
	if _, err := FM0Decode(chips, 1); err == nil {
		t.Error("decoding with wrong initial level should violate at chip 0")
	}
}

func TestPIEPaperMapping(t *testing.T) {
	// Sec. 4.1: PIE bit 0 = "10", bit 1 = "110".
	if got := PIEEncode(Bits{0}); !got.Equal(Bits{1, 0}) {
		t.Errorf("PIE(0) = %v", got)
	}
	if got := PIEEncode(Bits{1}); !got.Equal(Bits{1, 1, 0}) {
		t.Errorf("PIE(1) = %v", got)
	}
}

func TestPIERoundTrip(t *testing.T) {
	f := func(raw []byte) bool {
		data := randomBits(raw)
		decoded, err := PIEDecode(PIEEncode(data))
		return err == nil && decoded.Equal(data)
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
	if !decoded.Equal(Bits{0, 1}) {
		t.Errorf("decoded %v", decoded)
	}
}

func TestPIEDecodeIntervals(t *testing.T) {
	bits, err := PIEDecodeIntervals([]float64{1.0, 2.0, 0.9, 2.2})
	if err != nil {
		t.Fatal(err)
	}
	if !bits.Equal(Bits{0, 1, 0, 1}) {
		t.Errorf("decoded %v", bits)
	}
	// Jitter within the window still decodes.
	bits, err = PIEDecodeIntervals([]float64{1.45, 1.55})
	if err != nil {
		t.Fatal(err)
	}
	if !bits.Equal(Bits{0, 1}) {
		t.Errorf("threshold classification wrong: %v", bits)
	}
	// Outside the rejection window fails.
	if _, err := PIEDecodeIntervals([]float64{0.3}); err == nil {
		t.Error("expected error below window")
	}
	if _, err := PIEDecodeIntervals([]float64{3.0}); err == nil {
		t.Error("expected error above window")
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
		bits, err := PIEDecodeIntervals([]float64{c.chips})
		if (err == nil) != ok || ok && bits[0] != bit {
			t.Errorf("PIEDecodeIntervals([%v]) = %v, %v; scalar %#x", c.chips, bits, err, bit)
		}
	}
}

func TestCRC8KnownVectors(t *testing.T) {
	// CRC-8/CCITT of 0x00 is 0x00; of "123456789" bytes is 0xF4
	// (standard check value).
	msg := Bits{}
	for _, c := range []byte("123456789") {
		msg = msg.Append(NewBitsFromUint(uint64(c), 8))
	}
	if got := CRC8(msg); got != 0xF4 {
		t.Errorf("CRC8 check value = %#x, want 0xF4", got)
	}
	if CRC8(NewBitsFromUint(0, 8)) != 0 {
		t.Error("CRC8 of zero byte should be 0")
	}
}

func TestCRC8Check(t *testing.T) {
	f := func(raw []byte) bool {
		data := randomBits(raw)
		crc := NewBitsFromUint(uint64(CRC8(data)), 8)
		return CheckCRC8(data, crc)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if CheckCRC8(Bits{1, 0}, Bits{0, 0, 0}) {
		t.Error("short CRC field must fail")
	}
}

func TestCRC8DetectsSingleAndDoubleBitErrors(t *testing.T) {
	// DESIGN.md invariant: all single- and double-bit errors in a
	// 32-bit window are detected.
	data := randomBits([]byte{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 1, 0, 1})
	crc := NewBitsFromUint(uint64(CRC8(data)), 8)
	frame := append(append(Bits{}, data...), crc...)
	flip := func(f Bits, i int) Bits {
		out := append(Bits{}, f...)
		out[i] ^= 1
		return out
	}
	for i := 0; i < len(frame); i++ {
		corrupted := flip(frame, i)
		if CheckCRC8(corrupted[:len(data)], corrupted[len(data):]) {
			t.Fatalf("single-bit error at %d undetected", i)
		}
		for j := i + 1; j < len(frame); j++ {
			c2 := flip(corrupted, j)
			if CheckCRC8(c2[:len(data)], c2[len(data):]) {
				t.Fatalf("double-bit error at %d,%d undetected", i, j)
			}
		}
	}
}
