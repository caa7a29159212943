package phy

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestULPacketRoundTrip(t *testing.T) {
	f := func(tid uint8, payload uint16) bool {
		p := ULPacket{TID: tid % MaxTags, Payload: payload % (1 << PayloadBits)}
		frame, err := p.Marshal()
		if err != nil || len(frame) != ULFrameBits {
			return false
		}
		got, err := UnmarshalUL(frame)
		return err == nil && got == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
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

func TestULPacketCRCRejectsCorruption(t *testing.T) {
	frame, err := ULPacket{TID: 7, Payload: 0xABC}.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	// Flip each non-preamble bit: every corruption must be caught
	// either by the CRC or (for CRC-field flips) by the check itself.
	for i := ULPreambleBits; i < len(frame); i++ {
		bad := append(Bits{}, frame...)
		bad[i] ^= 1
		if _, err := UnmarshalUL(bad); !errors.Is(err, ErrCRC) {
			t.Errorf("bit %d flip: got %v, want CRC error", i, err)
		}
	}
}

func TestULPacketFrameErrors(t *testing.T) {
	frame, _ := ULPacket{TID: 1, Payload: 2}.Marshal()
	if _, err := UnmarshalUL(frame[:31]); !errors.Is(err, ErrFrameLength) {
		t.Errorf("short frame: %v", err)
	}
	bad := append(Bits{}, frame...)
	bad[0] ^= 1
	if _, err := UnmarshalUL(bad); !errors.Is(err, ErrBadPreamble) {
		t.Errorf("preamble flip: %v", err)
	}
}

func TestBeaconRoundTrip(t *testing.T) {
	for cmd := Command(0); cmd <= 0xF; cmd++ {
		frame, err := (Beacon{Cmd: cmd}).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if len(frame) != DLFrameBits {
			t.Fatalf("frame length %d", len(frame))
		}
		got, err := UnmarshalDL(frame)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmd != cmd {
			t.Errorf("cmd %v round-tripped to %v", cmd, got.Cmd)
		}
	}
	if _, err := (Beacon{Cmd: 0x10}).Marshal(); !errors.Is(err, ErrFieldTooWide) {
		t.Error("oversized cmd accepted")
	}
}

func TestBeaconFrameErrors(t *testing.T) {
	frame, _ := (Beacon{Cmd: CmdACK}).Marshal()
	if _, err := UnmarshalDL(frame[:9]); !errors.Is(err, ErrFrameLength) {
		t.Errorf("short beacon: %v", err)
	}
	bad := append(Bits{}, frame...)
	bad[2] ^= 1
	if _, err := UnmarshalDL(bad); !errors.Is(err, ErrBadPreamble) {
		t.Errorf("preamble flip: %v", err)
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
