package phy

import (
	"fmt"
	"testing"
	"testing/quick"
)

// ParseBits converts a 0/1 string into Bits, rejecting other runes.
func ParseBits(s string) (Bits, error) {
	b := make(Bits, 0, len(s))
	for i, r := range s {
		switch r {
		case '0':
			b = append(b, 0)
		case '1':
			b = append(b, 1)
		default:
			return nil, fmt.Errorf("phy: invalid bit %q at position %d", r, i)
		}
	}
	return b, nil
}

func TestBitsUintRoundTrip(t *testing.T) {
	f := func(v uint16) bool {
		b := NewBitsFromUint(uint64(v), 16)
		return b.Uint() == uint64(v) && len(b) == 16
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBitsFromUintMSBFirst(t *testing.T) {
	b := NewBitsFromUint(0b1010, 4)
	want := Bits{1, 0, 1, 0}
	if !b.Equal(want) {
		t.Errorf("got %v, want %v", b, want)
	}
	// Narrow width truncates high bits.
	b = NewBitsFromUint(0xFF, 4)
	if b.Uint() != 0xF {
		t.Errorf("truncation wrong: %v", b)
	}
}

func TestBitsUintPanicsOver64(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	make(Bits, 65).Uint()
}

func TestBitsString(t *testing.T) {
	b := Bits{1, 0, 1, 1, 0}
	if b.String() != "10110" {
		t.Errorf("String = %q", b.String())
	}
	parsed, err := ParseBits("10110")
	if err != nil {
		t.Fatal(err)
	}
	if !parsed.Equal(b) {
		t.Error("parse round-trip failed")
	}
	if _, err := ParseBits("10x"); err == nil {
		t.Error("expected error for invalid rune")
	}
}

func TestBitsStringParseRoundTrip(t *testing.T) {
	f := func(raw []byte) bool {
		b := make(Bits, len(raw))
		for i, v := range raw {
			b[i] = v & 1
		}
		parsed, err := ParseBits(b.String())
		return err == nil && parsed.Equal(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBitsEqual(t *testing.T) {
	a := Bits{1, 0, 1}
	if !a.Equal(Bits{1, 0, 1}) {
		t.Error("equal slices reported unequal")
	}
	if a.Equal(Bits{1, 0}) {
		t.Error("length mismatch reported equal")
	}
	if a.Equal(Bits{1, 0, 0}) {
		t.Error("content mismatch reported equal")
	}
	// Bits compare modulo the low bit: 3 and 1 are both "1".
	if !a.Equal(Bits{3, 2, 1}) {
		t.Error("low-bit comparison failed")
	}
}

func TestBitsInvert(t *testing.T) {
	b := Bits{1, 0, 1, 1}
	inv := b.Invert()
	if !inv.Equal(Bits{0, 1, 0, 0}) {
		t.Errorf("invert = %v", inv)
	}
	if !inv.Invert().Equal(b) {
		t.Error("double inversion not identity")
	}
}

func TestBitsAppend(t *testing.T) {
	a := Bits{1, 0}
	c := a.Append(Bits{1}, Bits{0, 0})
	if !c.Equal(Bits{1, 0, 1, 0, 0}) {
		t.Errorf("append = %v", c)
	}
}
