// Package wire is the versioned, length-prefixed binary encoding layer
// shared by the trace sinks (internal/obs), the fleet outcome codec
// (internal/fleet), the fleetd checkpoint store (internal/fleetd), and
// the CLIs' -trace-format binary mode. It holds only the format itself
// — primitives, frame layout and the domain-separation tag registry —
// so it depends on nothing but the standard library and every higher
// layer can build its record codec on top without import cycles.
//
// Layout. A stream opens with an 8-byte header (magic "ARWB" + a
// little-endian uint32 format version) followed by frames. Every frame
// is
//
//	[4-byte ASCII tag][uint32 LE payload length][payload]
//
// The tag both names the record kind and domain-separates payloads: a
// checkpoint envelope can never be misparsed as a trace event because
// their tags differ, in the style of protocol signing tags. The last
// tag byte is a format-version digit — an incompatible payload change
// mints a new tag (e.g. "ECL2") and decoders keep accepting the old
// one, so committed v1 fixtures decode forever.
//
// Each record has exactly one codec pair: Append* grows a caller slice
// (reusing its capacity, so batched writers allocate nothing in steady
// state) and Unmarshal* parses one frame and reports how many bytes it
// consumed. Decoders return typed errors — ErrTruncated, ErrUnknownTag,
// ErrMalformed — and never panic on hostile input; every Unmarshal in
// this module is fuzzed.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// Version is the stream-header format version. It guards the header
// and frame layout only; individual record payloads version through
// their tag's trailing digit.
const Version = 1

// Decode errors. All wrap one of these sentinels so callers can branch
// with errors.Is while still seeing the specific field in the message.
var (
	// ErrTruncated means the input ended mid-header, mid-frame, or
	// mid-field.
	ErrTruncated = errors.New("wire: truncated input")
	// ErrBadHeader means the stream does not open with the ARWB magic
	// or carries an unsupported format version.
	ErrBadHeader = errors.New("wire: bad stream header")
	// ErrUnknownTag means the frame tag is not in this build's
	// registry (a record kind from a future version, or garbage).
	ErrUnknownTag = errors.New("wire: unknown frame tag")
	// ErrMalformed means the frame parsed structurally but its payload
	// violates the record's schema (bad varint, trailing bytes, CRC
	// mismatch, out-of-range enum).
	ErrMalformed = errors.New("wire: malformed payload")
)

// MaxFrame bounds a single frame's payload length. Streaming readers
// refuse larger declared lengths before allocating, so a corrupt or
// hostile length field cannot balloon memory.
const MaxFrame = 64 << 20

// castagnoli is the CRC-32C polynomial table (hardware-accelerated on
// most CPUs) — the same checksum the fleetd checkpoint envelope has
// used since the JSON format.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC-32C of b.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// --- varints ---

// AppendUvarint appends v in unsigned LEB128.
//
//alloc:hot appends into the caller's buffer; allocates only when the buffer grows
func AppendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// AppendVarint appends v zigzag-encoded, so small negative ints stay
// short.
//
//alloc:hot appends into the caller's buffer; allocates only when the buffer grows
func AppendVarint(dst []byte, v int64) []byte {
	return binary.AppendVarint(dst, v)
}

// ConsumeUvarint parses an unsigned varint from the front of buf,
// returning the value and the bytes consumed.
func ConsumeUvarint(buf []byte) (uint64, int, error) {
	v, n := binary.Uvarint(buf)
	if n == 0 {
		return 0, 0, fmt.Errorf("%w: uvarint", ErrTruncated)
	}
	if n < 0 {
		return 0, 0, fmt.Errorf("%w: uvarint overflows 64 bits", ErrMalformed)
	}
	return v, n, nil
}

// ConsumeVarint parses a zigzag varint from the front of buf.
func ConsumeVarint(buf []byte) (int64, int, error) {
	v, n := binary.Varint(buf)
	if n == 0 {
		return 0, 0, fmt.Errorf("%w: varint", ErrTruncated)
	}
	if n < 0 {
		return 0, 0, fmt.Errorf("%w: varint overflows 64 bits", ErrMalformed)
	}
	return v, n, nil
}

// --- fixed-width scalars ---

// AppendU32 appends v little-endian.
//
//alloc:hot appends into the caller's buffer; allocates only when the buffer grows
func AppendU32(dst []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(dst, v)
}

// AppendU64 appends v little-endian.
//
//alloc:hot appends into the caller's buffer; allocates only when the buffer grows
func AppendU64(dst []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, v)
}

// AppendF64Bits appends the float's exact IEEE-754 bits little-endian.
// Encoding bits (not text) is what makes a binary→JSONL conversion
// byte-identical to a native JSONL trace: the decoded float64 is the
// same value, so encoding/json prints the same shortest decimal.
//
//alloc:hot appends into the caller's buffer; allocates only when the buffer grows
func AppendF64Bits(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// ConsumeU32 parses a little-endian uint32.
func ConsumeU32(buf []byte) (uint32, int, error) {
	if len(buf) < 4 {
		return 0, 0, fmt.Errorf("%w: u32", ErrTruncated)
	}
	return binary.LittleEndian.Uint32(buf), 4, nil
}

// ConsumeU64 parses a little-endian uint64.
func ConsumeU64(buf []byte) (uint64, int, error) {
	if len(buf) < 8 {
		return 0, 0, fmt.Errorf("%w: u64", ErrTruncated)
	}
	return binary.LittleEndian.Uint64(buf), 8, nil
}

// ConsumeF64Bits parses a little-endian IEEE-754 float64.
func ConsumeF64Bits(buf []byte) (float64, int, error) {
	if len(buf) < 8 {
		return 0, 0, fmt.Errorf("%w: f64", ErrTruncated)
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(buf)), 8, nil
}

// --- length-prefixed strings and byte blobs ---

// AppendString appends a uvarint length followed by the string bytes.
//
//alloc:hot appends into the caller's buffer; allocates only when the buffer grows
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendBytes appends a uvarint length followed by the raw bytes.
//
//alloc:hot appends into the caller's buffer; allocates only when the buffer grows
func AppendBytes(dst []byte, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// ConsumeStringBytes parses a length-prefixed blob and returns a view
// into buf (no copy). The caller must copy before buf is reused.
func ConsumeStringBytes(buf []byte) ([]byte, int, error) {
	n, hdr, err := ConsumeUvarint(buf)
	if err != nil {
		return nil, 0, err
	}
	if n > uint64(len(buf)-hdr) {
		return nil, 0, fmt.Errorf("%w: string of %d bytes with %d remaining", ErrTruncated, n, len(buf)-hdr)
	}
	return buf[hdr : hdr+int(n)], hdr + int(n), nil
}

// ConsumeString parses a length-prefixed string (copies).
func ConsumeString(buf []byte) (string, int, error) {
	b, n, err := ConsumeStringBytes(buf)
	if err != nil {
		return "", 0, err
	}
	return string(b), n, nil
}

// ConsumeBytes parses a length-prefixed blob (copies, so the result
// outlives buf; decoders that retain fields use this).
func ConsumeBytes(buf []byte) ([]byte, int, error) {
	b, n, err := ConsumeStringBytes(buf)
	if err != nil {
		return nil, 0, err
	}
	if len(b) == 0 {
		return nil, n, nil
	}
	return append([]byte(nil), b...), n, nil
}
