package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"runtime"
	"testing"
)

// testTag frames the payloads of the layout tests; it names no record
// kind in the registry.
var testTag = Tag{'T', 'S', 'T', '0'}

func TestScalarRoundTrip(t *testing.T) {
	var buf []byte
	buf = AppendUvarint(buf, 0)
	buf = AppendUvarint(buf, 300)
	buf = AppendUvarint(buf, math.MaxUint64)
	buf = AppendVarint(buf, -1)
	buf = AppendVarint(buf, math.MinInt64)
	buf = AppendU32(buf, 0xdeadbeef)
	buf = AppendU64(buf, 1<<63)
	buf = AppendF64Bits(buf, -0.1)
	buf = AppendString(buf, "hello")
	buf = AppendBytes(buf, nil)

	d := NewDecoder(buf)
	for i, want := range []uint64{0, 300, math.MaxUint64} {
		if v := d.Uvarint(); v != want {
			t.Fatalf("uvarint %d: got %d, %v; want %d", i, v, d.Err(), want)
		}
	}
	for i, want := range []int64{-1, math.MinInt64} {
		if v := d.Varint(); v != want {
			t.Fatalf("varint %d: got %d, %v; want %d", i, v, d.Err(), want)
		}
	}
	if u32 := d.U32(); u32 != 0xdeadbeef {
		t.Fatalf("u32: got %x, %v", u32, d.Err())
	}
	if u64 := d.U64(); u64 != 1<<63 {
		t.Fatalf("u64: got %x, %v", u64, d.Err())
	}
	if f := d.F64Bits(); math.Float64bits(f) != math.Float64bits(-0.1) {
		t.Fatalf("f64: got %v, %v", f, d.Err())
	}
	if s := d.Str(); s != "hello" {
		t.Fatalf("string: got %q, %v", s, d.Err())
	}
	if err := d.Finish("test record"); !errors.Is(err, ErrMalformed) {
		t.Fatalf("Finish before the last field: %v, want ErrMalformed (trailing bytes)", err)
	}
	if b := d.Bytes(); b != nil {
		t.Fatalf("bytes: got %v, %v; want nil", b, d.Err())
	}
	if err := d.Finish("test record"); err != nil {
		t.Fatalf("Finish after the last field: %v", err)
	}
}

func TestDecoderTruncated(t *testing.T) {
	full := AppendString(nil, "some trailing payload")
	for cut := 0; cut < len(full); cut++ {
		d := NewDecoder(full[:cut])
		d.Str()
		if err := d.Finish("test record"); !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d: err = %v, want ErrTruncated", cut, err)
		}
	}
	for i, read := range []func(*Decoder){
		func(d *Decoder) { d.U32() },
		func(d *Decoder) { d.U64() },
		func(d *Decoder) { d.F64Bits() },
	} {
		d := NewDecoder([]byte{1, 2})
		read(&d)
		if !errors.Is(d.Err(), ErrTruncated) {
			t.Fatalf("short fixed-width read %d: %v", i, d.Err())
		}
	}
}

func TestDecoderUvarintOverflow(t *testing.T) {
	over := bytes.Repeat([]byte{0xff}, 11)
	d := NewDecoder(over)
	if d.Uvarint(); !errors.Is(d.Err(), ErrMalformed) {
		t.Fatalf("overflowing uvarint: %v, want ErrMalformed", d.Err())
	}
	// 10 continuation bytes with no terminator read as truncated, not
	// as a bogus value.
	d = NewDecoder(over[:10])
	if d.Uvarint(); !errors.Is(d.Err(), ErrTruncated) {
		t.Fatalf("unterminated uvarint: %v, want ErrTruncated", d.Err())
	}
}

// The first error is kept: later reads return zero values, consume
// nothing and do not replace it, and Fail does not either.
func TestDecoderStickyError(t *testing.T) {
	buf := AppendU32(nil, 7)
	buf = AppendString(buf, "x")
	d := NewDecoder(buf[:2])
	if v := d.U32(); v != 0 || !errors.Is(d.Err(), ErrTruncated) {
		t.Fatalf("short u32: %d, %v", v, d.Err())
	}
	first := d.Err()
	if d.Str() != "" || d.Uvarint() != 0 || d.Frame() != nil || d.Count(1) != 0 {
		t.Fatal("a read after the kept error returned a value")
	}
	d.Fail(ErrMalformed)
	if d.Err() != first || d.Finish("test record") != first || len(d.Rest()) != 2 {
		t.Fatalf("kept error %v, rest %d bytes; want the first error and nothing consumed", d.Err(), len(d.Rest()))
	}

	// Without an earlier error, Fail's error is the one kept.
	d = NewDecoder(buf)
	d.U32()
	d.Fail(ErrMalformed)
	if d.Str() != "" || !errors.Is(d.Finish("test record"), ErrMalformed) {
		t.Fatalf("Fail: %v, want ErrMalformed", d.Err())
	}
}

// Count trusts a declared count only as far as the unread bytes can
// hold that many elements of the smallest encoded size.
func TestDecoderCount(t *testing.T) {
	for _, c := range []struct {
		count, minSize, rest int
		ok                   bool
	}{
		{0, 9, 0, true},
		{3, 1, 3, true},
		{3, 1, 2, false},
		{4, 9, 36, true},
		{4, 9, 35, false},
		{1 << 20, 1, 1 << 10, false},
	} {
		buf := AppendUvarint(nil, uint64(c.count))
		buf = append(buf, make([]byte, c.rest)...)
		d := NewDecoder(buf)
		n := d.Count(c.minSize)
		if c.ok && (n != c.count || d.Err() != nil) {
			t.Errorf("count %d of ≥ %d bytes in %d: got %d, %v", c.count, c.minSize, c.rest, n, d.Err())
		}
		if !c.ok && (n != 0 || !errors.Is(d.Err(), ErrTruncated)) {
			t.Errorf("count %d of ≥ %d bytes in %d: got %d, %v; want ErrTruncated", c.count, c.minSize, c.rest, n, d.Err())
		}
	}
}

// Frame returns a nested frame whole and stops at a truncated one.
func TestDecoderFrame(t *testing.T) {
	inner := AppendFrame(nil, testTag, []byte("in"))
	d := NewDecoder(append(append([]byte(nil), inner...), inner[:5]...))
	if got := d.Frame(); !bytes.Equal(got, inner) {
		t.Fatalf("nested frame: got %x, want %x", got, inner)
	}
	if got := d.Frame(); got != nil || !errors.Is(d.Err(), ErrTruncated) {
		t.Fatalf("cut nested frame: got %x, %v; want ErrTruncated", got, d.Err())
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	buf := AppendHeader(nil)
	if len(buf) != HeaderSize {
		t.Fatalf("header is %d bytes, want %d", len(buf), HeaderSize)
	}
	n, err := ConsumeHeader(buf)
	if err != nil || n != HeaderSize {
		t.Fatalf("ConsumeHeader: %d, %v", n, err)
	}
	if _, err := ConsumeHeader(buf[:5]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short header: %v", err)
	}
	bad := append([]byte(nil), buf...)
	bad[0] = 'X'
	if _, err := ConsumeHeader(bad); !errors.Is(err, ErrBadHeader) {
		t.Fatalf("bad magic: %v", err)
	}
	future := AppendHeader(nil)
	future[4] = 99
	if _, err := ConsumeHeader(future); !errors.Is(err, ErrBadHeader) {
		t.Fatalf("future version: %v", err)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	payload := []byte("the payload")
	buf := AppendFrame(nil, testTag, payload)
	tag, got, n, err := ConsumeFrame(buf)
	if err != nil {
		t.Fatal(err)
	}
	if tag != testTag || !bytes.Equal(got, payload) || n != len(buf) {
		t.Fatalf("frame round trip: tag %s payload %q n %d", tag, got, n)
	}

	// Begin/End framing produces identical bytes.
	start := 0
	alt := BeginFrame(nil, testTag)
	alt = append(alt, payload...)
	alt = EndFrame(alt, start)
	if !bytes.Equal(alt, buf) {
		t.Fatalf("BeginFrame/EndFrame differs from AppendFrame:\n%x\n%x", alt, buf)
	}
}

func TestConsumeFrameHostileLengths(t *testing.T) {
	buf := AppendFrame(nil, testTag, []byte("xy"))
	for cut := 0; cut < len(buf); cut++ {
		if _, _, _, err := ConsumeFrame(buf[:cut]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d: %v, want ErrTruncated", cut, err)
		}
	}
	// A declared length past MaxFrame must be refused before any
	// allocation, not trusted.
	huge := append([]byte(nil), buf...)
	huge[4], huge[5], huge[6], huge[7] = 0xff, 0xff, 0xff, 0xff
	if _, _, _, err := ConsumeFrame(huge); !errors.Is(err, ErrMalformed) {
		t.Fatalf("oversize frame: %v, want ErrMalformed", err)
	}
}

func TestChecksumMatchesCastagnoli(t *testing.T) {
	// Pin the polynomial: checkpoints on disk are CRC-32C-tagged, so a
	// table change would orphan them.
	if got := Checksum([]byte("123456789")); got != 0xe3069283 {
		t.Fatalf("Checksum(123456789) = %08x, want e3069283 (CRC-32C)", got)
	}
}

// FrameReader must hand back frames of every size intact, across the
// grow-as-it-reads path and the reused-buffer path.
func TestFrameReaderRoundTrip(t *testing.T) {
	sizes := []int{0, 5, 4000, 300_000, 17, 1 << 20, 100}
	stream := AppendHeader(nil)
	for i, n := range sizes {
		payload := bytes.Repeat([]byte{byte(i + 1)}, n)
		stream = AppendFrame(stream, testTag, payload)
	}
	fr := NewFrameReader(bytes.NewReader(stream))
	for i, n := range sizes {
		tag, frame, err := fr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		want := AppendFrame(nil, testTag, bytes.Repeat([]byte{byte(i + 1)}, n))
		if tag != testTag || !bytes.Equal(frame, want) {
			t.Fatalf("frame %d (%d bytes) did not round-trip", i, n)
		}
	}
	if _, _, err := fr.Next(); err != io.EOF {
		t.Fatalf("after last frame: %v, want io.EOF", err)
	}

	// Cut inside a large payload: truncated, not a short frame.
	cut := AppendFrame(AppendHeader(nil), testTag, make([]byte, 300_000))
	fr = NewFrameReader(bytes.NewReader(cut[:len(cut)-1]))
	if _, _, err := fr.Next(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("cut payload: %v, want ErrTruncated", err)
	}
}

// A frame header that declares MaxFrame and is followed by nothing must
// fail as truncated without allocating the declared 64 MiB.
func TestFrameReaderHostileLengthAllocatesLittle(t *testing.T) {
	stream := AppendHeader(nil)
	stream = append(stream, testTag[:]...)
	stream = binary.LittleEndian.AppendUint32(stream, MaxFrame)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	_, _, err := NewFrameReader(bytes.NewReader(stream)).Next()
	runtime.ReadMemStats(&m1)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("header-only MaxFrame: %v, want ErrTruncated", err)
	}
	if d := m1.TotalAlloc - m0.TotalAlloc; d >= 1<<20 {
		t.Fatalf("header-only MaxFrame allocated %d bytes, want < 1 MiB", d)
	}
}
