package arachnet

import (
	"fmt"
	"io"
	"os"

	"repro/internal/obs"
)

// Unified observability. Every layer of the simulator — the discrete
// event engine, the slot protocol, the energy subsystem, the decode
// chain and the fleet pool — emits the same typed event records through
// an obs.Tracer, re-exported here so callers don't import internal
// packages. A nil tracer disables everything at (near-)zero cost.

// Re-exported observability types.
type (
	Tracer       = obs.Tracer
	TraceEvent   = obs.Event
	TraceSink    = obs.Sink
	StreamSink   = obs.StreamSink
	MemorySink   = obs.MemorySink
	TraceMetrics = obs.Metrics
)

// Trace stream encodings, as selected by the CLI -trace-format flags.
// JSONL is the debug-friendly default; binary is the length-prefixed
// wire format (internal/wire, DESIGN.md §11) — the two are lossless
// views of the same stream, bridged by ConvertTrace.
const (
	TraceFormatJSONL  = "jsonl"
	TraceFormatBinary = "binary"
)

// traceFormat maps a -trace-format value to its encoding: "" or
// TraceFormatJSONL selects JSONL, TraceFormatBinary the wire format.
func traceFormat(format string) (obs.Format, error) {
	switch format {
	case "", TraceFormatJSONL:
		return obs.JSONL, nil
	case TraceFormatBinary:
		return obs.Binary, nil
	default:
		return 0, fmt.Errorf("unknown trace format %q (want %s or %s)", format, TraceFormatJSONL, TraceFormatBinary)
	}
}

// NewTraceFileSink builds the sink for a -trace-format value over w.
// Writes are batched: call Close (or Flush) when the run completes and
// check its error before closing w.
func NewTraceFileSink(w io.Writer, format string) (*StreamSink, error) {
	f, err := traceFormat(format)
	if err != nil {
		return nil, err
	}
	return obs.NewStreamSink(w, f), nil
}

// CreateTraceFile opens the sink for a -trace / -trace-format flag
// pair: path "-" writes to stderr, any other path is created (or
// truncated), and the format is chosen as by NewTraceFileSink. Close
// flushes the sink, then closes the file (never stderr), and returns
// the first error, so a truncated trace is always reported.
func CreateTraceFile(path, format string) (*StreamSink, error) {
	if path == "-" {
		return NewTraceFileSink(os.Stderr, format)
	}
	enc, err := traceFormat(format)
	if err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return obs.NewFileSink(f, enc), nil
}

// Trace event kinds, re-exported.
const (
	TraceSlotOpen  = obs.KindSlotOpen
	TraceSlotClose = obs.KindSlotClose
	TraceTagSettle = obs.KindTagSettle
	TraceSimEvent  = obs.KindSimEvent
	TraceDecode    = obs.KindDecode
	TraceJobStart  = obs.KindJobStart
	TraceJobFinish = obs.KindJobFinish
)

// NewTracer builds a tracer over the given sinks.
func NewTracer(sinks ...TraceSink) *Tracer { return obs.New(sinks...) }

// ConvertTraceBinaryToJSONL rewrites a binary trace stream as JSONL;
// the output is byte-identical to what a JSONL sink attached to the
// same run would have produced.
func ConvertTraceBinaryToJSONL(r io.Reader, w io.Writer) error {
	return obs.ConvertBinaryToJSONL(r, w)
}

// ConvertTraceJSONLToBinary rewrites a JSONL trace stream in the
// binary wire format; converting back yields the original JSONL.
func ConvertTraceJSONLToBinary(r io.Reader, w io.Writer) error {
	return obs.ConvertJSONLToBinary(r, w)
}

// NewMemorySink buffers events in memory (Drain bounds the growth).
func NewMemorySink() *MemorySink { return obs.NewMemorySink() }

// NewTraceMetrics builds an empty metrics registry. As a tracer sink
// it counts every event under "events_<kind>".
func NewTraceMetrics() *TraceMetrics { return obs.NewMetrics() }
