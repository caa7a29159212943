package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// FrameReader reads a wire stream (header, then frames) incrementally
// from an io.Reader — the decode loop under the obs trace reader. The
// returned frame slice is reused across calls; callers must finish
// with it before the next Next.
type FrameReader struct {
	r       *bufio.Reader
	frame   []byte
	started bool
}

// NewFrameReader reads the wire stream from r, buffering unless r
// already is a bufio.Reader.
func NewFrameReader(r io.Reader) *FrameReader {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 64<<10)
	}
	return &FrameReader{r: br}
}

// Next returns the next frame's tag and its complete bytes (header
// included, ready for an Unmarshal). It returns io.EOF only at a clean
// frame boundary; a stream cut mid-frame reports ErrTruncated, a
// hostile declared length ErrMalformed, and a bad opening header
// ErrBadHeader.
func (fr *FrameReader) Next() (Tag, []byte, error) {
	if !fr.started {
		hdr := make([]byte, HeaderSize)
		if _, err := io.ReadFull(fr.r, hdr); err != nil {
			if err == io.EOF {
				return Tag{}, nil, io.EOF
			}
			return Tag{}, nil, fmt.Errorf("%w: stream header", ErrTruncated)
		}
		if _, err := ConsumeHeader(hdr); err != nil {
			return Tag{}, nil, err
		}
		fr.started = true
	}
	if cap(fr.frame) < FrameHeaderSize {
		fr.frame = make([]byte, FrameHeaderSize, 4096)
	}
	fr.frame = fr.frame[:FrameHeaderSize]
	if _, err := io.ReadFull(fr.r, fr.frame); err != nil {
		if err == io.EOF {
			return Tag{}, nil, io.EOF // clean end between frames
		}
		return Tag{}, nil, fmt.Errorf("%w: frame header", ErrTruncated)
	}
	n := binary.LittleEndian.Uint32(fr.frame[4:8])
	if n > MaxFrame {
		return Tag{}, nil, fmt.Errorf("%w: frame declares %d bytes (max %d)", ErrMalformed, n, MaxFrame)
	}
	// A frame that fits the buffer is one ReadFull. A longer one grows
	// the buffer geometrically as its payload arrives, so a hostile
	// length prefix costs memory in proportion to the bytes actually
	// sent, not to the length it declares.
	need := FrameHeaderSize + int(n)
	for len(fr.frame) < need {
		if len(fr.frame) == cap(fr.frame) {
			fr.frame = slices.Grow(fr.frame, min(need-len(fr.frame), len(fr.frame)))
		}
		have := len(fr.frame)
		k, err := io.ReadFull(fr.r, fr.frame[have:min(need, cap(fr.frame))])
		fr.frame = fr.frame[:have+k]
		if err != nil {
			return Tag{}, nil, fmt.Errorf("%w: frame payload", ErrTruncated)
		}
	}
	return Tag(fr.frame[:4]), fr.frame, nil
}
