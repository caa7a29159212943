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
// consumed. Every Unmarshal walks its payload with one Decoder, which
// decides how a short or overflowing field is reported and how far a
// declared count is trusted. Decoders return typed errors —
// ErrTruncated, ErrUnknownTag, ErrMalformed — and never panic on
// hostile input; every Unmarshal in this module is fuzzed.
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
// most CPUs).
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

// --- decoding ---

// Decoder walks one frame payload front to back, reading the
// primitives the Append* functions write. It keeps the first error it
// hits: a short or overflowing field, a count the payload cannot hold,
// or a schema violation the record codec reports through Fail. Every
// later read returns the zero value and consumes nothing, so a record
// decoder reads its fields in order and checks once, at Finish.
//
// A Decoder is a small value: keep it in a local and pass its address
// to helpers. Its views borrow the payload; Str and Bytes copy.
type Decoder struct {
	buf []byte
	err error
}

// NewDecoder starts a walk over payload.
func NewDecoder(payload []byte) Decoder { return Decoder{buf: payload} }

// Err returns the kept error, or nil.
func (d *Decoder) Err() error { return d.err }

// Fail keeps err unless an earlier error is already kept. Record
// codecs report schema violations (an out-of-range enum, keys out of
// order) through it, so the first fault in the payload is the one
// reported.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Finish ends the walk over a record's payload: it returns the kept
// error, or ErrMalformed if bytes remain after the last field.
func (d *Decoder) Finish(record string) error {
	if d.err == nil && len(d.buf) != 0 {
		return fmt.Errorf("%w: %d trailing bytes in %s", ErrMalformed, len(d.buf), record)
	}
	return d.err
}

// Rest returns a view of the unread bytes without consuming them.
func (d *Decoder) Rest() []byte { return d.buf }

// take consumes the next n bytes and returns a view of them, or keeps
// ErrTruncated and returns nil when fewer remain.
func (d *Decoder) take(n uint64, field string) []byte {
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)) {
		d.err = fmt.Errorf("%w: %s of %d bytes with %d remaining", ErrTruncated, field, n, len(d.buf))
		return nil
	}
	b := d.buf[:n:n]
	d.buf = d.buf[n:]
	return b
}

// Uvarint reads an unsigned LEB128 varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	switch {
	case n == 0:
		d.err = fmt.Errorf("%w: uvarint", ErrTruncated)
		return 0
	case n < 0:
		d.err = fmt.Errorf("%w: uvarint overflows 64 bits", ErrMalformed)
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// Varint reads a zigzag varint: the uvarint u stands for u/2, or for
// -(u+1)/2 when u is odd.
func (d *Decoder) Varint() int64 {
	u := d.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	if b := d.take(4, "u32"); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	if b := d.take(8, "u64"); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// F64Bits reads a float64 from its little-endian IEEE-754 bits.
func (d *Decoder) F64Bits() float64 {
	if b := d.take(8, "f64"); b != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	return 0
}

// Str reads a length-prefixed string (a copy).
func (d *Decoder) Str() string {
	return string(d.take(d.Uvarint(), "string"))
}

// Bytes reads a length-prefixed blob as a copy that outlives the
// payload; an empty blob reads as nil.
func (d *Decoder) Bytes() []byte {
	b := d.take(d.Uvarint(), "bytes")
	if len(b) == 0 {
		return nil
	}
	return append([]byte(nil), b...)
}

// Count reads a declared element count and keeps ErrTruncated instead
// when the unread bytes cannot hold that many elements of minSize
// bytes each (minSize >= 1: the element's smallest encoding). A
// hostile count therefore fails here, before it can drive a loop or
// size a container; decoders still grow their containers as elements
// parse rather than from the count.
func (d *Decoder) Count(minSize int) int {
	n := d.Uvarint()
	if d.err == nil && n > uint64(len(d.buf)/minSize) {
		d.err = fmt.Errorf("%w: %d elements of at least %d bytes with %d remaining", ErrTruncated, n, minSize, len(d.buf))
	}
	if d.err != nil {
		return 0
	}
	return int(n)
}

// Frame reads one nested frame and returns it whole, header included,
// for the nested record's own Unmarshal.
func (d *Decoder) Frame() []byte {
	if d.err != nil {
		return nil
	}
	_, _, n, err := ConsumeFrame(d.buf)
	if err != nil {
		d.err = err
		return nil
	}
	return d.take(uint64(n), "frame")
}
