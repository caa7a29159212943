package phy

import (
	"errors"
	"fmt"
)

// Packet structures (Sec. 4.2, Fig. 5). The uplink frame carries sensor
// data with integrity protection; the downlink beacon is deliberately
// minimal — every DL bit wakes every tag through an interrupt, so each
// bit of beacon costs standby energy fleet-wide. The beacon therefore
// has no CRC and no tag ID.

// ULPreamble marks the start of an uplink frame (8 bits). The pattern
// maximizes transitions for the reader's clock recovery.
const ULPreamble uint32 = 0b1011_0100

// DLPreamble marks the arrival of a beacon (6 bits).
const DLPreamble uint16 = 0b10_1100

// Field widths from Fig. 5.
const (
	ULPreambleBits = 8
	TIDBits        = 4
	PayloadBits    = 12
	CRCBits        = 8
	ULFrameBits    = ULPreambleBits + TIDBits + PayloadBits + CRCBits // 32

	DLPreambleBits = 6
	CMDBits        = 4
	DLFrameBits    = DLPreambleBits + CMDBits // 10
)

// MaxTags is the tag-address space of the 4-bit TID field.
const MaxTags = 1 << TIDBits

// Command is the 4-bit CMD field of a beacon. The low three bits are
// independent flags; the fourth is reserved for future use (Sec. 4.2).
type Command uint8

const (
	// CmdACK acknowledges the uplink packet received in the slot that
	// just ended. Cleared, the beacon is a NACK: either nothing
	// decodable arrived or the reader inferred a collision.
	CmdACK Command = 1 << 0
	// CmdEMPTY advertises that the reader predicts the *current* slot
	// is unoccupied, gating late-arriving tags (Sec. 5.5).
	CmdEMPTY Command = 1 << 1
	// CmdRESET orders all tags to reinitialize their protocol state.
	CmdRESET Command = 1 << 2
	// CmdReserved is the spare bit.
	CmdReserved Command = 1 << 3
)

// Has reports whether flag f is set.
func (c Command) Has(f Command) bool { return c&f != 0 }

func (c Command) String() string {
	s := ""
	if c.Has(CmdACK) {
		s += "ACK|"
	} else {
		s += "NACK|"
	}
	if c.Has(CmdEMPTY) {
		s += "EMPTY|"
	}
	if c.Has(CmdRESET) {
		s += "RESET|"
	}
	if c.Has(CmdReserved) {
		s += "RSVD|"
	}
	return s[:len(s)-1]
}

// ULPacket is the uplink frame payload: tag ID plus one 12-bit sensor
// sample.
type ULPacket struct {
	TID     uint8  // 0..15
	Payload uint16 // 12-bit sensor reading
}

// Errors returned by the frame codecs.
var (
	ErrBadPreamble  = errors.New("phy: preamble mismatch")
	ErrCRC          = errors.New("phy: CRC check failed")
	ErrFieldTooWide = errors.New("phy: field value exceeds width")
)

// Marshal builds the 32-bit UL frame (preamble | TID | payload | CRC),
// the preamble in the top byte.
func (p ULPacket) Marshal() (uint32, error) {
	if p.TID >= MaxTags {
		return 0, fmt.Errorf("%w: TID %d", ErrFieldTooWide, p.TID)
	}
	if p.Payload >= 1<<PayloadBits {
		return 0, fmt.Errorf("%w: payload %d", ErrFieldTooWide, p.Payload)
	}
	body := uint16(p.TID)<<PayloadBits | p.Payload
	return ULPreamble<<(ULFrameBits-ULPreambleBits) | uint32(body)<<CRCBits | uint32(CRC8(body)), nil
}

// UnmarshalUL parses and verifies a 32-bit UL frame.
func UnmarshalUL(frame uint32) (ULPacket, error) {
	if frame>>(ULFrameBits-ULPreambleBits) != ULPreamble {
		return ULPacket{}, ErrBadPreamble
	}
	body := uint16(frame >> CRCBits)
	if CRC8(body) != uint8(frame) {
		return ULPacket{}, ErrCRC
	}
	return ULPacket{TID: uint8(body >> PayloadBits), Payload: body & (1<<PayloadBits - 1)}, nil
}

// Beacon is the downlink frame: just a command nibble behind the
// 6-bit preamble.
type Beacon struct {
	Cmd Command
}

// Marshal builds the 10-bit DL frame in the low bits of the word. Every
// 4-bit command makes a valid frame; bits of Cmd above the nibble are
// not sent.
func (b Beacon) Marshal() uint16 {
	return DLPreamble<<CMDBits | uint16(b.Cmd&(1<<CMDBits-1))
}

// UnmarshalDL parses a 10-bit DL frame; a word with bits set above the
// frame fails the preamble check. There is deliberately no CRC: the
// beacon's job is slot timing, and the protocol tolerates the
// occasional corrupted command (Sec. 4.2).
func UnmarshalDL(frame uint16) (Beacon, error) {
	if frame>>CMDBits != DLPreamble {
		return Beacon{}, ErrBadPreamble
	}
	return Beacon{Cmd: Command(frame & (1<<CMDBits - 1))}, nil
}
