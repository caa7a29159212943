package phy

import (
	"bytes"
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

func TestBitsString(t *testing.T) {
	b := Bits{1, 0, 1, 1, 0}
	if b.String() != "10110" {
		t.Errorf("String = %q", b.String())
	}
	parsed, err := ParseBits("10110")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(parsed, b) {
		t.Error("parse round-trip failed")
	}
	if _, err := ParseBits("10x"); err == nil {
		t.Error("expected error for invalid rune")
	}
}

func TestBitsStringParseRoundTrip(t *testing.T) {
	f := func(raw []byte) bool {
		b := randomBits(raw)
		parsed, err := ParseBits(b.String())
		return err == nil && bytes.Equal(parsed, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
