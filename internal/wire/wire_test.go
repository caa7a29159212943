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

	off := 0
	for i, want := range []uint64{0, 300, math.MaxUint64} {
		v, n, err := ConsumeUvarint(buf[off:])
		if err != nil || v != want {
			t.Fatalf("uvarint %d: got %d, %v; want %d", i, v, err, want)
		}
		off += n
	}
	for i, want := range []int64{-1, math.MinInt64} {
		v, n, err := ConsumeVarint(buf[off:])
		if err != nil || v != want {
			t.Fatalf("varint %d: got %d, %v; want %d", i, v, err, want)
		}
		off += n
	}
	u32, n, err := ConsumeU32(buf[off:])
	if err != nil || u32 != 0xdeadbeef {
		t.Fatalf("u32: got %x, %v", u32, err)
	}
	off += n
	u64, n, err := ConsumeU64(buf[off:])
	if err != nil || u64 != 1<<63 {
		t.Fatalf("u64: got %x, %v", u64, err)
	}
	off += n
	f, n, err := ConsumeF64Bits(buf[off:])
	if err != nil || math.Float64bits(f) != math.Float64bits(-0.1) {
		t.Fatalf("f64: got %v, %v", f, err)
	}
	off += n
	s, n, err := ConsumeString(buf[off:])
	if err != nil || s != "hello" {
		t.Fatalf("string: got %q, %v", s, err)
	}
	off += n
	b, n, err := ConsumeBytes(buf[off:])
	if err != nil || b != nil {
		t.Fatalf("bytes: got %v, %v; want nil", b, err)
	}
	off += n
	if off != len(buf) {
		t.Fatalf("consumed %d of %d bytes", off, len(buf))
	}
}

func TestConsumeTruncated(t *testing.T) {
	full := AppendString(nil, "some trailing payload")
	for cut := 0; cut < len(full); cut++ {
		if _, _, err := ConsumeString(full[:cut]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d: err = %v, want ErrTruncated", cut, err)
		}
	}
	if _, _, err := ConsumeU32([]byte{1, 2}); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short u32: %v", err)
	}
	if _, _, err := ConsumeF64Bits([]byte{1}); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short f64: %v", err)
	}
}

func TestConsumeUvarintOverflow(t *testing.T) {
	over := bytes.Repeat([]byte{0xff}, 11)
	if _, _, err := ConsumeUvarint(over); !errors.Is(err, ErrMalformed) {
		t.Fatalf("overflowing uvarint: %v, want ErrMalformed", err)
	}
	// 10 continuation bytes with no terminator read as truncated, not
	// as a bogus value.
	if _, _, err := ConsumeUvarint(over[:10]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("unterminated uvarint: %v, want ErrTruncated", err)
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
