package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
)

// jsonlBufSize is the JSONLSink write buffer. Before PR 10 every event
// was one unbuffered Write (a syscall per event on a file sink); now
// lines accumulate in a bufio.Writer and reach w in buffer-sized
// batches. Call Flush or Close when the run completes.
const jsonlBufSize = 64 << 10

// JSONLSink writes one JSON object per event to w, buffered. Write and
// encode errors are sticky: the first failure stops all further output
// and is reported by Err/Flush/Close, so a full disk yields a
// diagnosable error instead of a silently truncated trace. Because
// writes are buffered, a mid-stream failure may surface on a later
// Emit or on Flush rather than on the Emit that owned the bytes.
type JSONLSink struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	enc *json.Encoder
	err error
}

// NewJSONLSink traces to w as JSON lines. Call Close (or Flush) when
// the run completes — dropping the sink without flushing loses the
// buffered tail.
func NewJSONLSink(w io.Writer) *JSONLSink {
	bw := bufio.NewWriterSize(w, jsonlBufSize)
	return &JSONLSink{bw: bw, enc: json.NewEncoder(bw)}
}

// Emit implements Sink.
func (s *JSONLSink) Emit(ev Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	s.err = s.enc.Encode(ev)
}

// Flush writes buffered lines through to w and reports the sticky
// error state.
func (s *JSONLSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	s.err = s.bw.Flush()
	return s.err
}

// Close flushes and reports the first write error, if any. It does not
// close the underlying writer.
func (s *JSONLSink) Close() error { return s.Flush() }

// Err returns the first write or encode error, or nil. It does not
// flush; a clean Err after Emit only says the buffered encode
// succeeded.
func (s *JSONLSink) Err() error {
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
