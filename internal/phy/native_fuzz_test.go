package phy

import (
	"bytes"
	"testing"
)

// Native go fuzz targets mirroring the testing/quick properties in
// fuzz_test.go: coverage-guided exploration of the frame parsers and
// line codecs. Run one at a time, e.g.
//
//	go test ./internal/phy -run '^$' -fuzz '^FuzzUnmarshalUL$' -fuzztime 10s
//
// (make fuzz-smoke runs all of them; CI includes the smoke job.)

// FuzzUnmarshalUL drives the UL word parser and the FM0 chip decoder:
// a word is FM0-encoded, one chip is optionally flipped, and the
// decoded word is parsed. An untouched stream must decode to the word;
// a flipped chip must break the decode or change the word; any frame
// the parser accepts must re-marshal to itself.
func FuzzUnmarshalUL(f *testing.F) {
	valid, err := (ULPacket{TID: 5, Payload: 0xABC}).Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid, uint8(0))
	f.Add(valid^1, uint8(0)) // a corrupted CRC
	f.Add(uint32(0), uint8(9))
	f.Fuzz(func(t *testing.T, frame uint32, flip uint8) {
		chips := AppendFM0(nil, uint64(frame), ULFrameBits, 0)
		if flip != 0 {
			chips[int(flip-1)%len(chips)] ^= 1
		}
		word, err := FM0Decode(chips, 0)
		switch {
		case flip == 0 && (err != nil || word != uint64(frame)):
			t.Fatalf("clean chips of %#08x decoded to %#x, %v", frame, word, err)
		case flip != 0 && err == nil && word == uint64(frame):
			t.Fatalf("flipped chip %d of %#08x went unnoticed", int(flip-1)%len(chips), frame)
		case err != nil:
			return
		}
		pkt, err := UnmarshalUL(uint32(word))
		if err != nil {
			return // rejection is fine; panics are not
		}
		again, err := pkt.Marshal()
		if err != nil {
			t.Fatalf("accepted packet %+v fails to marshal: %v", pkt, err)
		}
		if again != uint32(word) {
			t.Fatalf("round trip mismatch: in %#08x, out %#08x", word, again)
		}
	})
}

// FuzzUnmarshalDL drives the DL word parser and the PIE interval
// decoder: each fuzz byte is one measured pulse width (in 1/64 chip),
// and whatever decodes is parsed; any beacon the parser accepts must
// re-marshal to the decoded word.
func FuzzUnmarshalDL(f *testing.F) {
	valid := (Beacon{Cmd: CmdACK | CmdEMPTY}).Marshal()
	widths := make([]byte, 0, DLFrameBits)
	for i := DLFrameBits - 1; i >= 0; i-- {
		widths = append(widths, byte(64+64*(valid>>i&1)))
	}
	f.Add(widths)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		highs := make([]float64, len(raw))
		for i, b := range raw {
			highs[i] = float64(b) / 64
		}
		word, err := PIEDecodeIntervals(highs)
		if err != nil || len(highs) != DLFrameBits {
			return
		}
		beacon, err := UnmarshalDL(uint16(word))
		if err != nil {
			return
		}
		if again := beacon.Marshal(); uint64(again) != word {
			t.Fatalf("round trip mismatch for %+v: %#x -> %#x", beacon, word, again)
		}
	})
}

func FuzzPIEDecode(f *testing.F) {
	f.Add([]byte(AppendPIE(nil, 0b1011, 4)))
	f.Add([]byte{1, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		bits, err := PIEDecode(randomBits(raw))
		if err != nil {
			return
		}
		// Accepted streams re-encode to a stream that decodes to the
		// same bits (the input's trailing separator may be truncated, so
		// chips are not compared directly).
		again, err := PIEDecode(appendPIEBits(nil, bits))
		if err != nil {
			t.Fatalf("re-encoded stream rejected: %v", err)
		}
		if !bytes.Equal(again, bits) {
			t.Fatalf("decode/encode/decode mismatch:\n first  %v\n second %v", bits, again)
		}
	})
}

func FuzzFM0Decode(f *testing.F) {
	f.Add([]byte(AppendFM0(nil, 0b1001, 4, 0)), byte(0))
	f.Add([]byte{}, byte(1))
	f.Fuzz(func(t *testing.T, raw []byte, init byte) {
		chips := randomBits(raw)
		word, err := FM0Decode(chips, init&1)
		if err != nil {
			return
		}
		if !bytes.Equal(AppendFM0(nil, word, len(chips)/2, init&1), chips) {
			t.Fatalf("FM0 round trip mismatch for init=%d chips=%v", init&1, chips)
		}
	})
}
