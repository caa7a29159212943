package phy

import (
	"bytes"
	"testing"
	"testing/quick"
)

// Robustness of the frame parsers against arbitrary input: they must
// never panic, and anything they accept must re-marshal to the same
// word.

func TestUnmarshalULArbitraryBits(t *testing.T) {
	f := func(frame uint32, keepPreamble bool) bool {
		if keepPreamble { // a random word almost never carries it
			frame = ULPreamble<<24 | frame&0xFFFFFF
		}
		pkt, err := UnmarshalUL(frame)
		if err != nil {
			return true // rejection is fine
		}
		// Accepted frames round-trip exactly.
		again, err := pkt.Marshal()
		return err == nil && again == frame
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Every 16-bit word either fails UnmarshalDL or is one of the 16
// beacons, and re-marshals to itself.
func TestUnmarshalDLArbitraryBits(t *testing.T) {
	accepted := 0
	for w := 0; w < 1<<16; w++ {
		beacon, err := UnmarshalDL(uint16(w))
		if err != nil {
			continue
		}
		accepted++
		if again := beacon.Marshal(); again != uint16(w) {
			t.Fatalf("%#04x parsed to %+v, which marshals to %#04x", w, beacon, again)
		}
	}
	if accepted != 1<<CMDBits {
		t.Errorf("%d words accepted, want %d", accepted, 1<<CMDBits)
	}
}

func TestFM0DecodeArbitraryChips(t *testing.T) {
	// Any chip stream either decodes or errors; a successful decode
	// must re-encode to the same chips.
	f := func(raw []byte, init byte) bool {
		chips := randomBits(raw)
		word, err := FM0Decode(chips, init&1)
		if err != nil {
			return true
		}
		return bytes.Equal(AppendFM0(nil, word, len(chips)/2, init&1), chips)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestPIEDecodeArbitraryChips(t *testing.T) {
	// PIEDecode must never panic; accepted streams re-encode to a
	// stream that decodes identically (the trailing separator may be
	// truncated in the input, so compare decoded bits, not chips).
	f := func(raw []byte) bool {
		bits, err := PIEDecode(randomBits(raw))
		if err != nil {
			return true
		}
		again, err := PIEDecode(appendPIEBits(nil, bits))
		return err == nil && bytes.Equal(again, bits)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// appendPIEBits PIE-encodes a bit list of any length, one bit at a
// time.
func appendPIEBits(dst, bits Bits) Bits {
	for _, b := range bits {
		dst = AppendPIE(dst, uint64(b), 1)
	}
	return dst
}
