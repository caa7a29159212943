package obs

import (
	"encoding/json"
	"io"
	"sync"

	"repro/internal/wire"
)

// Format selects the encoding a StreamSink writes.
type Format uint8

const (
	// JSONL writes one JSON object per line: the debug-friendly form.
	JSONL Format = iota
	// Binary writes the length-prefixed wire format (binary.go,
	// DESIGN.md §11). ConvertBinaryToJSONL turns it into the JSONL the
	// same run would have written, byte for byte.
	Binary
)

// flushAt is the StreamSink batch threshold: Emit appends the encoded
// event to the in-memory batch and only crosses into the writer when
// this many bytes are pending, so steady-state tracing costs an
// append, not a syscall.
const flushAt = 32 << 10

// batch is a StreamSink's pending output. The JSON encoder writes into
// it as an io.Writer; binary frames are appended to it directly.
type batch []byte

func (b *batch) Write(p []byte) (int, error) {
	*b = append(*b, p...)
	return len(p), nil
}

// StreamSink writes the event stream to w, batched, in one of the two
// Formats (a binary stream opens with the wire header). Write and
// encode errors are sticky: the first failure stops all further output
// and is reported by Err/Flush/Close, so a full disk yields a
// diagnosable error instead of a silently truncated trace. Because
// writes are batched, a failure may surface on a later Emit or on
// Flush rather than on the Emit that owned the bytes. Safe for
// concurrent use.
type StreamSink struct {
	mu    sync.Mutex
	w     io.Writer
	owned io.Closer // closed by Close; nil when the caller owns w
	buf   batch
	enc   *json.Encoder // nil for Binary
	err   error
}

// NewStreamSink traces to w in format f. Call Close (or Flush) when
// the run completes: events are batched, so dropping the sink without
// flushing loses the tail. Close leaves w open.
func NewStreamSink(w io.Writer, f Format) *StreamSink {
	s := &StreamSink{w: w, buf: make(batch, 0, flushAt+4<<10)}
	if f == Binary {
		s.buf = wire.AppendHeader(s.buf)
	} else {
		s.enc = json.NewEncoder(&s.buf)
	}
	return s
}

// NewFileSink is NewStreamSink over a file the sink owns: Close
// flushes, then closes f.
func NewFileSink(f io.WriteCloser, format Format) *StreamSink {
	s := NewStreamSink(f, format)
	s.owned = f
	return s
}

// Emit implements Sink. A binary frame is appended straight into the
// reused batch, so a steady-state binary Emit performs zero
// allocations (gated by AllocsPerRun and the static escape baseline).
//
//alloc:hot steady-state trace emission: one encode into the reused batch buffer, no syscall until the batch fills
func (s *StreamSink) Emit(ev Event) {
	s.mu.Lock()
	if s.err == nil {
		if s.enc != nil {
			s.err = encodeJSON(s.enc, ev)
		} else {
			s.buf = AppendEvent(s.buf, &ev)
		}
		if len(s.buf) >= flushAt {
			s.flushLocked()
		}
	}
	s.mu.Unlock()
}

// encodeJSON is Emit's JSON path. Encode takes an interface, so ev
// escapes here; kept out of line, that escape stays out of the
// //alloc:hot Emit.
//
//go:noinline
func encodeJSON(enc *json.Encoder, ev Event) error { return enc.Encode(ev) }

// flushLocked writes the pending batch; the caller holds s.mu.
func (s *StreamSink) flushLocked() {
	if s.err != nil || len(s.buf) == 0 {
		return
	}
	_, s.err = s.w.Write(s.buf)
	s.buf = s.buf[:0]
}

// Flush writes the pending batch through to w and reports the sticky
// error state.
func (s *StreamSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flushLocked()
	return s.err
}

// Close flushes, closes the file of a NewFileSink, and reports the
// first error, if any.
func (s *StreamSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flushLocked()
	if s.owned != nil {
		if err := s.owned.Close(); s.err == nil {
			s.err = err
		}
		s.owned = nil
	}
	return s.err
}

// Err returns the first write or encode error, or nil. It does not
// flush; a clean Err after Emit only says the batched encode
// succeeded.
func (s *StreamSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// MemorySink accumulates events in order; useful for tests and for
// building derived views (the arachnet-trace CSV is one).
type MemorySink struct {
	mu     sync.Mutex
	events []Event
}

// NewMemorySink returns an empty in-memory sink.
func NewMemorySink() *MemorySink { return &MemorySink{} }

// Emit implements Sink. The event's slices are borrowed, so the sink
// keeps a clone.
func (s *MemorySink) Emit(ev Event) {
	ev = ev.Clone()
	s.mu.Lock()
	s.events = append(s.events, ev)
	s.mu.Unlock()
}

// Len returns the number of buffered events.
func (s *MemorySink) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.events)
}

// Events returns a copy of the buffered events.
func (s *MemorySink) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.events...)
}

// Reset clears the buffer but keeps its capacity, so pooled per-trial
// sinks are reused without reallocating the event backing array.
func (s *MemorySink) Reset() {
	s.mu.Lock()
	s.events = s.events[:0]
	s.mu.Unlock()
}

// Drain returns the buffered events and clears the buffer, keeping
// long-running consumers (per-slot CSV rendering) memory-bounded.
func (s *MemorySink) Drain() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.events
	s.events = nil
	return out
}

// OfKind filters events, returning only those with the given kind.
func OfKind(events []Event, k Kind) []Event {
	var out []Event
	for _, ev := range events {
		if ev.Kind == k {
			out = append(out, ev)
		}
	}
	return out
}
