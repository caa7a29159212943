package obs

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/wire"
)

var updateGolden = flag.Bool("update", false, "rewrite golden wire-format fixtures")

// traceFixture exercises every event kind in the vocabulary plus an
// unknown kind, with every field populated somewhere, negative ints,
// awkward floats, and empty-vs-absent slices. It doubles as the golden
// fixture corpus: testdata/trace_v1.bin is this trace frozen at wire
// version 1.
func traceFixture() []Event {
	return []Event{
		{Kind: KindSlotOpen, Slot: 1, ACK: true, Empty: false},
		{Kind: KindSlotClose, Slot: 2, TIDs: []int{3, 1, 2}, Decoded: []int{1}, Collision: true},
		{Kind: KindTagSettle, Slot: 3, TID: 7, Period: 16, Offset: 5},
		{Kind: KindTagUnsettle, Slot: 24, TID: -1, Detail: "missed"},
		{Kind: KindTagEvict, Slot: 9, TID: 4, Period: 8, Offset: 3},
		{Kind: KindCutoffOn, T: 1.5, TID: 2, Value: 2.31},
		{Kind: KindCutoffOff, T: 0.1, TID: 2, Value: -0.0625},
		{Kind: KindBrownout, T: 3.25, TID: 9, Value: 1e-6},
		{Kind: KindSimEvent, T: 12.0625, Name: "beacon"},
		{Kind: KindDecode, Slot: 5, TID: 3, Detail: "crc_fail", Value: 2},
		{Kind: KindJobStart, Job: 63, Seed: 0xdeadbeefcafe, Name: "sweep-63"},
		{Kind: KindJobFinish, Job: 63, Seed: 1, Name: "sweep-63", Detail: "ok"},
		{Kind: KindFaultInject, Slot: 11, TID: 0, Detail: "fade_start", Value: -12.5},
		{Kind: KindFaultClear, Slot: 40, Detail: "fade_end", Value: 29},
		{Kind: KindTagRejoin, Slot: 41, TID: 9, Period: 32},
		{Kind: Kind("from_the_future"), Slot: 99, Name: "forward-compat", Value: 0.3},
		{Kind: KindSlotClose}, // all-zero payload: one bitmap byte
	}
}

func TestEventRoundTripAllKinds(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "trace_v1.bin"))
	if err != nil {
		t.Fatal(err)
	}
	off := wire.HeaderSize
	for _, want := range traceFixture() {
		want := want
		frame := AppendEvent(nil, &want)
		_, _, goldenLen, err := wire.ConsumeFrame(golden[off:])
		if err != nil {
			t.Fatalf("%s: golden frame: %v", want.Kind, err)
		}
		if len(frame) != goldenLen {
			t.Fatalf("%s: frame is %d bytes, golden fixture's is %d", want.Kind, len(frame), goldenLen)
		}
		off += goldenLen
		var got Event
		n, err := UnmarshalEvent(frame, &got)
		if err != nil || n != len(frame) {
			t.Fatalf("%s: UnmarshalEvent: %d, %v", want.Kind, n, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s round trip mangled event:\n got %+v\nwant %+v", want.Kind, got, want)
		}
	}
}

func TestUnmarshalEventReusesScratch(t *testing.T) {
	src := Event{Kind: KindSlotClose, TIDs: []int{1, 2, 3}, Decoded: []int{2, 3}}
	frame := AppendEvent(nil, &src)
	ev := Event{TIDs: make([]int, 0, 8), Decoded: make([]int, 0, 8)}
	keepT, keepD := ev.TIDs[:1], ev.Decoded[:1]
	if _, err := UnmarshalEvent(frame, &ev); err != nil {
		t.Fatal(err)
	}
	if &keepT[0] != &ev.TIDs[0] || &keepD[0] != &ev.Decoded[0] {
		t.Fatal("decode did not reuse the caller's slice capacity")
	}
	if !reflect.DeepEqual(ev.TIDs, []int{1, 2, 3}) || !reflect.DeepEqual(ev.Decoded, []int{2, 3}) {
		t.Fatalf("reused decode wrong: %+v", ev)
	}
}

func TestUnmarshalEventHostileInput(t *testing.T) {
	var ev Event
	for _, src := range traceFixture() {
		src := src
		frame := AppendEvent(nil, &src)
		// Every possible truncation errors cleanly, never panics.
		for cut := 0; cut < len(frame); cut++ {
			if _, err := UnmarshalEvent(frame[:cut], &ev); err == nil {
				t.Fatalf("%s cut at %d decoded successfully", src.Kind, cut)
			}
		}
		// Trailing garbage inside the declared frame is refused.
		grown := AppendEvent(nil, &src)
		grown = append(grown, 0xaa)
		grown[4]++ // declared length now covers the junk byte
		if _, err := UnmarshalEvent(grown, &ev); !errors.Is(err, wire.ErrMalformed) {
			t.Fatalf("%s trailing bytes: %v, want ErrMalformed", src.Kind, err)
		}
	}

	// A non-event tag is rejected up front.
	notEvent := wire.AppendFrame(nil, wire.TagCheckpoint, []byte{0})
	if _, err := UnmarshalEvent(notEvent, &ev); !errors.Is(err, wire.ErrUnknownTag) {
		t.Fatalf("checkpoint tag: %v, want ErrUnknownTag", err)
	}

	// Unknown presence bits mean a newer field vocabulary: hard error,
	// never a silent skip.
	future := wire.AppendFrame(nil, wire.TagEventSlotOpen, wire.AppendUvarint(nil, 1<<20))
	if _, err := UnmarshalEvent(future, &ev); !errors.Is(err, wire.ErrMalformed) {
		t.Fatalf("future bits: %v, want ErrMalformed", err)
	}

	// A slice count larger than the remaining payload is refused before
	// any allocation.
	hostile := wire.AppendUvarint(nil, uint64(evTIDs))
	hostile = wire.AppendUvarint(hostile, 1<<40)
	frame := wire.AppendFrame(nil, wire.TagEventSlotClose, hostile)
	if _, err := UnmarshalEvent(frame, &ev); !errors.Is(err, wire.ErrTruncated) {
		t.Fatalf("hostile slice count: %v, want ErrTruncated", err)
	}

	// A count that the padding behind it does back (one byte per TID)
	// is still refused above the largest tag id, without allocating
	// anything near the frame's size.
	padded := paddedEvent(4 << 20)
	var err error
	alloc := allocated(func() { _, err = UnmarshalEvent(padded, &ev) })
	if !errors.Is(err, wire.ErrMalformed) {
		t.Fatalf("padded TID count: %v, want ErrMalformed", err)
	}
	if alloc >= uint64(len(padded)) {
		t.Fatalf("padded TID count allocated %d bytes decoding a %d-byte frame", alloc, len(padded))
	}
}

// paddedEvent is a slot_close frame whose TIDs count is n, followed by
// n zero bytes (n zero-valued TIDs).
func paddedEvent(n int) []byte {
	payload := wire.AppendUvarint(nil, uint64(evTIDs))
	payload = wire.AppendUvarint(payload, uint64(n))
	return wire.AppendFrame(nil, wire.TagEventSlotClose, append(payload, make([]byte, n)...))
}

// allocated returns the bytes the heap allocated while f ran.
func allocated(f func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

func TestBinarySinkStreamRoundTrip(t *testing.T) {
	events := traceFixture()
	var buf bytes.Buffer
	sink := NewStreamSink(&buf, Binary)
	tr := New(sink)
	for _, ev := range events {
		tr.Emit(ev)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte("ARWB")) {
		t.Fatalf("stream does not open with magic: % x", buf.Bytes()[:8])
	}

	er := NewEventReader(&buf)
	var got []Event
	for {
		var ev Event
		err := er.Read(&ev)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, ev)
	}
	if !reflect.DeepEqual(got, events) {
		t.Fatalf("stream round trip mangled events:\n got %+v\nwant %+v", got, events)
	}
}

func TestEventReaderTruncatedStream(t *testing.T) {
	var buf bytes.Buffer
	sink := NewStreamSink(&buf, Binary)
	sink.Emit(Event{Kind: KindSlotOpen, Slot: 1})
	sink.Emit(Event{Kind: KindSlotClose, Slot: 1, TIDs: []int{2}})
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// A stream cut inside the second frame reads the first event then
	// errors (not io.EOF, not a panic).
	er := NewEventReader(bytes.NewReader(full[:len(full)-3]))
	var ev Event
	if err := er.Read(&ev); err != nil || ev.Slot != 1 {
		t.Fatalf("first event: %+v, %v", ev, err)
	}
	if err := er.Read(&ev); err == nil || err == io.EOF {
		t.Fatalf("truncated tail read as %v", err)
	}

	// An empty stream is a clean EOF; garbage is a header error.
	if err := NewEventReader(strings.NewReader("")).Read(&ev); err != io.EOF {
		t.Fatalf("empty stream: %v, want io.EOF", err)
	}
	if err := NewEventReader(strings.NewReader("not a trace")).Read(&ev); !errors.Is(err, wire.ErrBadHeader) {
		t.Fatalf("garbage stream: %v, want ErrBadHeader", err)
	}
}

func TestBinarySinkStickyError(t *testing.T) {
	sink := NewStreamSink(&failWriter{n: 0}, Binary)
	sink.Emit(Event{Kind: KindSlotOpen})
	if sink.Flush() == nil {
		t.Fatal("write error not captured on flush")
	}
	sink.Emit(Event{Kind: KindSlotOpen}) // must not clear the error
	if sink.Err() == nil {
		t.Fatal("sticky error cleared")
	}
	if sink.Close() == nil {
		t.Fatal("close must keep reporting the sticky error")
	}
}

func TestBinarySinkEmitSteadyStateAllocs(t *testing.T) {
	// The tentpole perf contract: once the batch buffer exists, Emit is
	// an append plus an occasional batched Write — zero allocations per
	// event. The static escape baseline (arachnet-lint -alloc-gate)
	// checks the same property at compile time.
	sink := NewStreamSink(io.Discard, Binary)
	tids := []int{1, 2, 3}
	decoded := []int{2}
	ev := Event{Kind: KindSlotClose, Slot: 1, TIDs: tids, Decoded: decoded, Collision: true, Name: "steady"}
	sink.Emit(ev) // warm up
	allocs := testing.AllocsPerRun(2000, func() {
		ev.Slot++
		sink.Emit(ev)
	})
	if allocs != 0 {
		t.Fatalf("binary StreamSink.Emit allocates %v per event in steady state, want 0", allocs)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestConvertBinaryToJSONLByteIdentity(t *testing.T) {
	events := traceFixture()

	// The native JSONL trace of the run.
	var native bytes.Buffer
	js := NewStreamSink(&native, JSONL)
	for _, ev := range events {
		js.Emit(ev)
	}
	if err := js.Close(); err != nil {
		t.Fatal(err)
	}

	// The binary trace of the same run.
	var bin bytes.Buffer
	bs := NewStreamSink(&bin, Binary)
	for _, ev := range events {
		bs.Emit(ev)
	}
	if err := bs.Close(); err != nil {
		t.Fatal(err)
	}

	// binary -> JSONL must be byte-identical to the native JSONL.
	var converted bytes.Buffer
	if err := ConvertBinaryToJSONL(bytes.NewReader(bin.Bytes()), &converted); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(converted.Bytes(), native.Bytes()) {
		t.Fatalf("converted JSONL differs from native:\n--- converted ---\n%s\n--- native ---\n%s", converted.Bytes(), native.Bytes())
	}

	// JSONL -> binary must reproduce the binary stream exactly.
	var back bytes.Buffer
	if err := ConvertJSONLToBinary(bytes.NewReader(native.Bytes()), &back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Bytes(), bin.Bytes()) {
		t.Fatal("JSONL->binary differs from the native binary stream")
	}

	// And a converter error path: truncated binary input errors out.
	if err := ConvertBinaryToJSONL(bytes.NewReader(bin.Bytes()[:bin.Len()-2]), io.Discard); err == nil {
		t.Fatal("truncated binary converted without error")
	}
}

// TestGoldenTraceV1 freezes the version-1 wire encoding: the committed
// fixture must decode to the committed JSONL forever, whatever the
// current encoder emits. Regenerate with -update only alongside a
// version bump.
func TestGoldenTraceV1(t *testing.T) {
	binPath := filepath.Join("testdata", "trace_v1.bin")
	jsonlPath := filepath.Join("testdata", "trace_v1.jsonl")

	if *updateGolden {
		var bin, jsonl bytes.Buffer
		bs := NewStreamSink(&bin, Binary)
		js := NewStreamSink(&jsonl, JSONL)
		for _, ev := range traceFixture() {
			bs.Emit(ev)
			js.Emit(ev)
		}
		if err := bs.Close(); err != nil {
			t.Fatal(err)
		}
		if err := js.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(binPath, bin.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(jsonlPath, jsonl.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	binData, err := os.ReadFile(binPath)
	if err != nil {
		t.Fatalf("%v (regenerate with go test ./internal/obs -run TestGoldenTraceV1 -update)", err)
	}
	wantJSONL, err := os.ReadFile(jsonlPath)
	if err != nil {
		t.Fatal(err)
	}

	// The committed v1 stream converts to the committed JSONL.
	var got bytes.Buffer
	if err := ConvertBinaryToJSONL(bytes.NewReader(binData), &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), wantJSONL) {
		t.Fatalf("golden v1 stream no longer decodes to its JSONL:\n%s\nwant\n%s", got.Bytes(), wantJSONL)
	}

	// The current encoder still emits the exact v1 bytes (flip this to a
	// new golden pair when minting version 2 tags).
	var reenc bytes.Buffer
	if err := ConvertJSONLToBinary(bytes.NewReader(wantJSONL), &reenc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reenc.Bytes(), binData) {
		t.Fatal("current encoder no longer reproduces the golden v1 stream")
	}
}

func FuzzUnmarshalEvent(f *testing.F) {
	for _, ev := range traceFixture() {
		ev := ev
		f.Add(AppendEvent(nil, &ev))
	}
	f.Add([]byte("EOP1\x01\x00\x00\x00\x00"))
	f.Add([]byte("EXX1\x00\x00\x00\x00"))
	// A slice count equal to the padding bytes behind it (each element
	// at least one byte): the padded-count shape, kept to a few KiB,
	// and the same shape one past the TID cap.
	f.Add(paddedEvent(4 << 10))
	f.Add(paddedEvent(maxEventTIDs + 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		var ev Event
		n, err := UnmarshalEvent(data, &ev)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d", n, len(data))
		}
		// The wire format is not bijective (varints admit non-minimal
		// encodings), but one decode-encode round must be a fixed point:
		// re-encoding the decoded event, decoding, and encoding again
		// yields identical bytes. Bytes, not DeepEqual — NaN payloads
		// survive as float bits but are never equal to themselves.
		canon := AppendEvent(nil, &ev)
		var ev2 Event
		m, err := UnmarshalEvent(canon, &ev2)
		if err != nil || m != len(canon) {
			t.Fatalf("re-decode of re-encoded event failed: %d, %v", m, err)
		}
		if again := AppendEvent(nil, &ev2); !bytes.Equal(again, canon) {
			t.Fatalf("decode/encode not a fixed point:\n first %x\nsecond %x", canon, again)
		}
	})
}
