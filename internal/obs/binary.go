package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"repro/internal/wire"
)

// Binary trace encoding (internal/wire format, DESIGN.md §11). Each
// event is one frame whose tag encodes the kind — fixed-size domain
// separation, so the kind string never travels for known kinds — and
// whose payload is a presence bitmap followed by the present fields in
// declaration order. A zero field is absent, exactly mirroring the
// JSON omitempty contract, and floats travel as IEEE-754 bits, so
// decode + encoding/json reproduces a native JSONL trace byte for
// byte. That equivalence is what keeps JSONL the debug surface:
// arachnet-trace -convert moves between the two without loss.

// kindTag maps each event kind to its frame tag. Order is the
// vocabulary's declaration order; the table is append-only (a payload
// change mints a new tag version instead of mutating a row).
var kindTag = map[Kind]wire.Tag{
	KindSlotOpen:    wire.TagEventSlotOpen,
	KindSlotClose:   wire.TagEventSlotClose,
	KindTagSettle:   wire.TagEventTagSettle,
	KindTagUnsettle: wire.TagEventTagUnsettle,
	KindTagEvict:    wire.TagEventTagEvict,
	KindCutoffOn:    wire.TagEventCutoffOn,
	KindCutoffOff:   wire.TagEventCutoffOff,
	KindBrownout:    wire.TagEventBrownout,
	KindSimEvent:    wire.TagEventSimEvent,
	KindDecode:      wire.TagEventDecode,
	KindJobStart:    wire.TagEventJobStart,
	KindJobFinish:   wire.TagEventJobFinish,
	KindFaultInject: wire.TagEventFaultInject,
	KindFaultClear:  wire.TagEventFaultClear,
	KindTagRejoin:   wire.TagEventTagRejoin,
}

// tagKind is the decoding inverse of kindTag.
var tagKind = func() map[wire.Tag]Kind {
	m := make(map[wire.Tag]Kind, len(kindTag))
	for k, t := range kindTag {
		m[t] = k
	}
	return m
}()

// Presence bits, one per Event field in declaration order (Kind rides
// the tag). A set bit means the field follows in the payload; a clear
// bit means the field is zero. Bits beyond evBitsAll are a decode
// error — a future field means a new tag version, never a silent skip.
const (
	evSlot = 1 << iota
	evT
	evTID
	evTIDs
	evDecoded
	evCollision
	evACK
	evEmpty
	evPeriod
	evOffset
	evJob
	evSeed
	evName
	evValue
	evDetail

	evBitsAll = 1<<15 - 1
)

// eventBits computes the presence bitmap of ev.
func eventBits(ev *Event) uint64 {
	var bits uint64
	if ev.Slot != 0 {
		bits |= evSlot
	}
	if ev.T != 0 {
		bits |= evT
	}
	if ev.TID != 0 {
		bits |= evTID
	}
	if len(ev.TIDs) != 0 {
		bits |= evTIDs
	}
	if len(ev.Decoded) != 0 {
		bits |= evDecoded
	}
	if ev.Collision {
		bits |= evCollision
	}
	if ev.ACK {
		bits |= evACK
	}
	if ev.Empty {
		bits |= evEmpty
	}
	if ev.Period != 0 {
		bits |= evPeriod
	}
	if ev.Offset != 0 {
		bits |= evOffset
	}
	if ev.Job != 0 {
		bits |= evJob
	}
	if ev.Seed != 0 {
		bits |= evSeed
	}
	if ev.Name != "" {
		bits |= evName
	}
	if ev.Value != 0 {
		bits |= evValue
	}
	if ev.Detail != "" {
		bits |= evDetail
	}
	return bits
}

// appendIntSlice appends a uvarint count followed by zigzag elements.
func appendIntSlice(dst []byte, xs []int) []byte {
	dst = wire.AppendUvarint(dst, uint64(len(xs)))
	for _, x := range xs {
		dst = wire.AppendVarint(dst, int64(x))
	}
	return dst
}

// maxEventTIDs bounds the length of an event's TIDs and Decoded lists.
// It mirrors mac.MaxObservationTID (obs cannot import mac): no
// observation carries a tag id above it, so no slot lists more tags.
const maxEventTIDs = 1 << 16

// readIntSlice reads a counted zigzag slice into scratch's capacity,
// growing it once to the count.
func readIntSlice(d *wire.Decoder, scratch []int) []int {
	n := d.Count(1) // each element is at least one byte
	if n > maxEventTIDs {
		d.Fail(fmt.Errorf("%w: %d tags in one event list (max %d)", wire.ErrMalformed, n, maxEventTIDs))
		return nil
	}
	if n == 0 {
		// A nil slice mirrors the encoder (a set bit always carries
		// elements) and the JSON omitempty contract.
		return nil
	}
	out := slices.Grow(scratch[:0], n)
	for i := 0; i < n && d.Err() == nil; i++ {
		out = append(out, int(d.Varint()))
	}
	return out
}

// AppendEvent appends ev as one wire frame. This is the binary
// StreamSink's hot path: a single pass, the length prefix backfilled,
// no intermediate buffers.
//
//alloc:hot steady-state trace encoding; appends into the sink's reused batch buffer, allocating only on one-time growth
func AppendEvent(dst []byte, ev *Event) []byte {
	tag, known := kindTag[ev.Kind]
	if !known {
		tag = wire.TagEventOther
	}
	start := len(dst)
	dst = wire.BeginFrame(dst, tag)
	if !known {
		dst = wire.AppendString(dst, string(ev.Kind))
	}
	bits := eventBits(ev)
	dst = wire.AppendUvarint(dst, bits)
	if bits&evSlot != 0 {
		dst = wire.AppendVarint(dst, int64(ev.Slot))
	}
	if bits&evT != 0 {
		dst = wire.AppendF64Bits(dst, ev.T)
	}
	if bits&evTID != 0 {
		dst = wire.AppendVarint(dst, int64(ev.TID))
	}
	if bits&evTIDs != 0 {
		dst = appendIntSlice(dst, ev.TIDs)
	}
	if bits&evDecoded != 0 {
		dst = appendIntSlice(dst, ev.Decoded)
	}
	if bits&evPeriod != 0 {
		dst = wire.AppendVarint(dst, int64(ev.Period))
	}
	if bits&evOffset != 0 {
		dst = wire.AppendVarint(dst, int64(ev.Offset))
	}
	if bits&evJob != 0 {
		dst = wire.AppendVarint(dst, int64(ev.Job))
	}
	if bits&evSeed != 0 {
		dst = wire.AppendU64(dst, ev.Seed)
	}
	if bits&evName != 0 {
		dst = wire.AppendString(dst, ev.Name)
	}
	if bits&evValue != 0 {
		dst = wire.AppendF64Bits(dst, ev.Value)
	}
	if bits&evDetail != 0 {
		dst = wire.AppendString(dst, ev.Detail)
	}
	return wire.EndFrame(dst, start)
}

// UnmarshalEvent parses one event frame from the front of buf into ev
// (overwriting it completely, reusing its slice capacity) and returns
// the bytes consumed. Unknown tags and malformed payloads return
// errors wrapping the wire sentinels; hostile input never panics.
func UnmarshalEvent(buf []byte, ev *Event) (int, error) {
	tag, payload, n, err := wire.ConsumeFrame(buf)
	if err != nil {
		return 0, err
	}
	d := wire.NewDecoder(payload)
	kind, known := tagKind[tag]
	tids, decoded := ev.TIDs[:0], ev.Decoded[:0]
	*ev = Event{}
	switch {
	case known:
		ev.Kind = kind
	case tag == wire.TagEventOther:
		ev.Kind = Kind(d.Str())
	default:
		return 0, fmt.Errorf("%w: %s is not a trace event tag", wire.ErrUnknownTag, tag)
	}
	bits := d.Uvarint()
	if bits&^uint64(evBitsAll) != 0 {
		d.Fail(fmt.Errorf("%w: unknown event field bits %#x (a newer field means a new tag version)", wire.ErrMalformed, bits&^uint64(evBitsAll)))
	}
	if bits&evSlot != 0 {
		ev.Slot = int(d.Varint())
	}
	if bits&evT != 0 {
		ev.T = d.F64Bits()
	}
	if bits&evTID != 0 {
		ev.TID = int(d.Varint())
	}
	if bits&evTIDs != 0 {
		ev.TIDs = readIntSlice(&d, tids)
	}
	if bits&evDecoded != 0 {
		ev.Decoded = readIntSlice(&d, decoded)
	}
	ev.Collision = bits&evCollision != 0
	ev.ACK = bits&evACK != 0
	ev.Empty = bits&evEmpty != 0
	if bits&evPeriod != 0 {
		ev.Period = int(d.Varint())
	}
	if bits&evOffset != 0 {
		ev.Offset = int(d.Varint())
	}
	if bits&evJob != 0 {
		ev.Job = int(d.Varint())
	}
	if bits&evSeed != 0 {
		ev.Seed = d.U64()
	}
	if bits&evName != 0 {
		ev.Name = d.Str()
	}
	if bits&evValue != 0 {
		ev.Value = d.F64Bits()
	}
	if bits&evDetail != 0 {
		ev.Detail = d.Str()
	}
	if err := d.Finish("event frame"); err != nil {
		return 0, err
	}
	return n, nil
}

// EventReader decodes a binary trace stream produced by a Binary
// StreamSink (or any wire-format writer): the header, then one event
// per frame.
type EventReader struct {
	fr *wire.FrameReader
}

// NewEventReader reads the binary trace stream from r.
func NewEventReader(r io.Reader) *EventReader {
	return &EventReader{fr: wire.NewFrameReader(r)}
}

// Read parses the next event into ev. It returns io.EOF at a clean
// stream end (between frames) and a wire error for truncated or
// malformed input.
func (er *EventReader) Read(ev *Event) error {
	_, frame, err := er.fr.Next()
	if err != nil {
		return err
	}
	_, err = UnmarshalEvent(frame, ev)
	return err
}

// ConvertBinaryToJSONL decodes a binary trace stream from r and writes
// the equivalent JSONL to w. Because the binary codec preserves exact
// float bits and the zero-is-absent contract, the output is
// byte-identical to the JSONL the same run would have emitted natively.
func ConvertBinaryToJSONL(r io.Reader, w io.Writer) error {
	er := NewEventReader(r)
	sink := NewStreamSink(w, JSONL)
	var ev Event
	for {
		err := er.Read(&ev)
		if err == io.EOF {
			return sink.Close()
		}
		if err != nil {
			return err
		}
		sink.Emit(ev)
	}
}

// ConvertJSONLToBinary encodes a JSONL trace stream from r into the
// binary wire format on w — the inverse of ConvertBinaryToJSONL, so
// existing JSONL traces can join binary tooling.
func ConvertJSONLToBinary(r io.Reader, w io.Writer) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<24)
	sink := NewStreamSink(w, Binary)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return fmt.Errorf("obs: decode JSONL event: %w", err)
		}
		sink.Emit(ev)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return sink.Close()
}
