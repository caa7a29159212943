package wire

import (
	"encoding/binary"
	"fmt"
)

// Tag is a 4-byte ASCII frame tag: three letters naming the record
// kind plus a trailing format-version digit. Tags domain-separate
// payloads (a stream-event frame can never be misparsed as a
// checkpoint) and version them (an incompatible payload change mints
// the next digit; decoders keep accepting the old tag).
type Tag [4]byte

// String renders the tag for error messages.
func (t Tag) String() string { return string(t[:]) }

// The tag registry. Every record kind in the module appears here, so
// DESIGN.md §11 and the decoders share one table.
var (
	// Trace events (internal/obs.Event), one tag per event kind —
	// fixed-size domain separation per kind, so the kind string itself
	// never travels on the wire for known kinds.
	TagEventSlotOpen    = Tag{'E', 'O', 'P', '1'}
	TagEventSlotClose   = Tag{'E', 'C', 'L', '1'}
	TagEventTagSettle   = Tag{'E', 'S', 'T', '1'}
	TagEventTagUnsettle = Tag{'E', 'U', 'N', '1'}
	TagEventTagEvict    = Tag{'E', 'E', 'V', '1'}
	TagEventCutoffOn    = Tag{'E', 'C', 'N', '1'}
	TagEventCutoffOff   = Tag{'E', 'C', 'F', '1'}
	TagEventBrownout    = Tag{'E', 'B', 'R', '1'}
	TagEventSimEvent    = Tag{'E', 'S', 'M', '1'}
	TagEventDecode      = Tag{'E', 'D', 'E', '1'}
	TagEventJobStart    = Tag{'E', 'J', 'S', '1'}
	TagEventJobFinish   = Tag{'E', 'J', 'F', '1'}
	TagEventFaultInject = Tag{'E', 'F', 'I', '1'}
	TagEventFaultClear  = Tag{'E', 'F', 'C', '1'}
	TagEventTagRejoin   = Tag{'E', 'R', 'J', '1'}
	// TagEventOther carries events whose kind is not in this build's
	// vocabulary (the kind string travels inline), so traces from a
	// newer simulator still convert.
	TagEventOther = Tag{'E', 'X', 'X', '1'}

	// TagJobOutcome is the fleet shard outcome (internal/fleet) the
	// checkpoint store persists.
	TagJobOutcome = Tag{'J', 'O', 'C', '1'}

	// TagCheckpoint is the fleetd checkpoint envelope (record payload
	// CRC-32C-tagged).
	TagCheckpoint = Tag{'C', 'K', 'P', '1'}

	// Retired, never to be reused: JDS1 (job descriptor), FSP1
	// (fleet-spec envelope) and SST1/SEV1/SDN1 (binary progress-stream
	// lines).
)

// streamMagic opens every binary stream, followed by the uint32
// format version.
var streamMagic = [4]byte{'A', 'R', 'W', 'B'}

// HeaderSize is the byte length of the stream header.
const HeaderSize = 8

// FrameHeaderSize is the byte length of a frame's tag + length prefix.
const FrameHeaderSize = 8

// AppendHeader appends the 8-byte stream header (magic + version).
//
//alloc:hot appends into the caller's buffer; allocates only when the buffer grows
func AppendHeader(dst []byte) []byte {
	dst = append(dst, streamMagic[:]...)
	return binary.LittleEndian.AppendUint32(dst, Version)
}

// ConsumeHeader validates the stream header at the front of buf and
// returns the bytes consumed.
func ConsumeHeader(buf []byte) (int, error) {
	if len(buf) < HeaderSize {
		return 0, fmt.Errorf("%w: stream header", ErrTruncated)
	}
	if [4]byte(buf[:4]) != streamMagic {
		return 0, fmt.Errorf("%w: magic %q, want %q", ErrBadHeader, buf[:4], streamMagic[:])
	}
	if v := binary.LittleEndian.Uint32(buf[4:]); v != Version {
		return 0, fmt.Errorf("%w: format version %d, this build reads %d", ErrBadHeader, v, Version)
	}
	return HeaderSize, nil
}

// BeginFrame appends the frame header (tag + length placeholder) for a
// frame whose payload will be appended next. The caller records
// len(dst) before the call and passes it to EndFrame, which backfills
// the length — single-pass framing with no size pre-computation.
//
//alloc:hot appends into the caller's buffer; allocates only when the buffer grows
func BeginFrame(dst []byte, tag Tag) []byte {
	dst = append(dst, tag[:]...)
	return append(dst, 0, 0, 0, 0)
}

// EndFrame backfills the length prefix of the frame begun at start
// (the value of len(dst) before BeginFrame).
//
//alloc:hot writes in place; never allocates
func EndFrame(buf []byte, start int) []byte {
	payload := len(buf) - start - FrameHeaderSize
	binary.LittleEndian.PutUint32(buf[start+4:start+8], uint32(payload))
	return buf
}

// AppendFrame appends a complete frame around an already-encoded
// payload.
//
//alloc:hot appends into the caller's buffer; allocates only when the buffer grows
func AppendFrame(dst []byte, tag Tag, payload []byte) []byte {
	start := len(dst)
	dst = BeginFrame(dst, tag)
	dst = append(dst, payload...)
	return EndFrame(dst, start)
}

// ConsumeFrame parses one frame from the front of buf, returning its
// tag, a view of its payload (no copy), and the bytes consumed. It
// validates lengths only — tag dispatch belongs to the record codec.
func ConsumeFrame(buf []byte) (Tag, []byte, int, error) {
	if len(buf) < FrameHeaderSize {
		return Tag{}, nil, 0, fmt.Errorf("%w: frame header", ErrTruncated)
	}
	tag := Tag(buf[:4])
	n := binary.LittleEndian.Uint32(buf[4:8])
	if n > MaxFrame {
		return Tag{}, nil, 0, fmt.Errorf("%w: frame %s declares %d bytes (max %d)", ErrMalformed, tag, n, MaxFrame)
	}
	if uint64(n) > uint64(len(buf)-FrameHeaderSize) {
		return Tag{}, nil, 0, fmt.Errorf("%w: frame %s declares %d bytes, %d remain", ErrTruncated, tag, n, len(buf)-FrameHeaderSize)
	}
	return tag, buf[FrameHeaderSize : FrameHeaderSize+int(n)], FrameHeaderSize + int(n), nil
}
