package phy

import (
	"errors"
	"strings"
	"testing"
)

// Every (TID, payload) packet marshals to a frame that parses back to
// it; the space is 2^16 packets, so all of them are checked.
func TestULPacketRoundTrip(t *testing.T) {
	for body := 0; body < 1<<(TIDBits+PayloadBits); body++ {
		p := ULPacket{TID: uint8(body >> PayloadBits), Payload: uint16(body) & 0xFFF}
		frame, err := p.Marshal()
		if err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
		if got, err := UnmarshalUL(frame); err != nil || got != p {
			t.Fatalf("%+v round-tripped through %#08x to %+v, %v", p, frame, got, err)
		}
	}
}

func TestULPacketFieldLimits(t *testing.T) {
	if _, err := (ULPacket{TID: 16}).Marshal(); !errors.Is(err, ErrFieldTooWide) {
		t.Errorf("TID=16: %v", err)
	}
	if _, err := (ULPacket{Payload: 1 << 12}).Marshal(); !errors.Is(err, ErrFieldTooWide) {
		t.Errorf("payload overflow: %v", err)
	}
	// Boundary values are fine.
	if _, err := (ULPacket{TID: 15, Payload: 0xFFF}).Marshal(); err != nil {
		t.Errorf("max fields: %v", err)
	}
}

// Every single-bit error in every valid UL frame is rejected: a flip in
// the preamble by the preamble check, any other by the CRC.
func TestULPacketCRCRejectsCorruption(t *testing.T) {
	for body := 0; body < 1<<(TIDBits+PayloadBits); body++ {
		frame, err := ULPacket{TID: uint8(body >> PayloadBits), Payload: uint16(body) & 0xFFF}.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < ULFrameBits; i++ {
			want := ErrCRC
			if i >= ULFrameBits-ULPreambleBits {
				want = ErrBadPreamble
			}
			if _, err := UnmarshalUL(frame ^ 1<<i); !errors.Is(err, want) {
				t.Fatalf("frame %#08x, bit %d flipped: got %v, want %v", frame, i, err, want)
			}
		}
	}
}

// The frame is preamble | TID | payload | CRC from the top bit down.
func TestULPacketFrameErrors(t *testing.T) {
	frame, err := ULPacket{TID: 1, Payload: 2}.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if want := ULPreamble<<24 | 0x1002<<8 | uint32(CRC8(0x1002)); frame != want {
		t.Errorf("frame %#08x, want %#08x", frame, want)
	}
	if _, err := UnmarshalUL(frame ^ 1<<31); !errors.Is(err, ErrBadPreamble) {
		t.Errorf("preamble flip: %v", err)
	}
}

func TestBeaconRoundTrip(t *testing.T) {
	for cmd := Command(0); cmd <= 0xF; cmd++ {
		frame := (Beacon{Cmd: cmd}).Marshal()
		if frame>>DLFrameBits != 0 {
			t.Fatalf("frame %#x wider than %d bits", frame, DLFrameBits)
		}
		got, err := UnmarshalDL(frame)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmd != cmd {
			t.Errorf("cmd %v round-tripped to %v", cmd, got.Cmd)
		}
	}
	if (Beacon{Cmd: 0x1F}).Marshal() != (Beacon{Cmd: 0xF}).Marshal() {
		t.Error("bits above the command nibble reached the frame")
	}
}

func TestBeaconFrameErrors(t *testing.T) {
	frame := (Beacon{Cmd: CmdACK}).Marshal()
	if _, err := UnmarshalDL(frame ^ 1<<7); !errors.Is(err, ErrBadPreamble) {
		t.Errorf("preamble flip: %v", err)
	}
	if _, err := UnmarshalDL(frame | 1<<DLFrameBits); !errors.Is(err, ErrBadPreamble) {
		t.Errorf("bit above the frame: %v", err)
	}
}

func TestCommandFlags(t *testing.T) {
	c := CmdACK | CmdEMPTY
	if !c.Has(CmdACK) || !c.Has(CmdEMPTY) || c.Has(CmdRESET) {
		t.Error("flag logic wrong")
	}
	s := c.String()
	if !strings.Contains(s, "ACK") || !strings.Contains(s, "EMPTY") {
		t.Errorf("String = %q", s)
	}
	if !strings.Contains(Command(0).String(), "NACK") {
		t.Errorf("zero command should read as NACK: %q", Command(0).String())
	}
	if !strings.Contains((CmdRESET | CmdReserved).String(), "RSVD") {
		t.Error("reserved flag missing from String")
	}
}

func TestBeaconHasNoTagIDNoCRC(t *testing.T) {
	// Sec. 4.2's design argument, locked in as a structural test: the
	// whole beacon is 10 bits — adding a 4-bit TID and 8-bit CRC would
	// more than double it.
	if DLFrameBits != 10 {
		t.Errorf("beacon is %d bits, the paper's compact design is 10", DLFrameBits)
	}
	if DLFrameBits+TIDBits+CRCBits < 2*DLFrameBits {
		t.Error("the TID+CRC alternative should at least double the beacon")
	}
}

func TestRatesFromDividers(t *testing.T) {
	for _, r := range ULRates {
		if got := MCUClockHz / float64(r.Divider); got != r.BitsPerSec {
			t.Errorf("divider %d: %v bps, want %v", r.Divider, got, r.BitsPerSec)
		}
	}
}
