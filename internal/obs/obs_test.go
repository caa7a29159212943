package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	tr.Emit(Event{Kind: KindSlotOpen}) // must not panic
	tr.Mute(KindSimEvent)
	if tr.Wants(KindSlotOpen) {
		t.Fatal("nil tracer wants events")
	}
}

func TestTracerNoSinksDisabled(t *testing.T) {
	if New().Enabled() {
		t.Fatal("sink-less tracer reports enabled")
	}
	census := NewMetrics()
	tr := New(census)
	if !tr.Enabled() {
		t.Fatal("census-only tracer reports disabled")
	}
	tr.Emit(Event{Kind: KindSlotOpen})
	sn := census.Snapshot()
	if len(sn.Counters) != 1 || sn.Counters[0].Name != "events_slot_open" || sn.Counters[0].Value != 1 {
		t.Fatalf("unexpected counters: %+v", sn.Counters)
	}
}

func TestMemorySinkOrderAndDrain(t *testing.T) {
	mem := NewMemorySink()
	tr := New(mem)
	for i := 0; i < 5; i++ {
		tr.Emit(Event{Kind: KindSlotClose, Slot: i})
	}
	evs := mem.Events()
	if len(evs) != 5 {
		t.Fatalf("got %d events, want 5", len(evs))
	}
	for i, ev := range evs {
		if ev.Slot != i {
			t.Fatalf("event %d has slot %d", i, ev.Slot)
		}
	}
	if got := mem.Drain(); len(got) != 5 {
		t.Fatalf("drain returned %d", len(got))
	}
	if mem.Len() != 0 {
		t.Fatal("drain did not clear the sink")
	}
}

func TestMute(t *testing.T) {
	mem := NewMemorySink()
	tr := New(mem)
	tr.Mute(KindSimEvent)
	tr.Emit(Event{Kind: KindSimEvent})
	tr.Emit(Event{Kind: KindSlotOpen})
	evs := mem.Events()
	if len(evs) != 1 || evs[0].Kind != KindSlotOpen {
		t.Fatalf("mute failed: %+v", evs)
	}
}

func TestJSONLSinkRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := NewStreamSink(&buf, JSONL)
	tr := New(sink)
	tr.Emit(Event{Kind: KindTagSettle, Slot: 7, TID: 3, Period: 8, Offset: 5})
	tr.Emit(Event{Kind: KindSlotClose, Slot: 7, TIDs: []int{3}, Decoded: []int{3}, ACK: true})
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	var ev Event
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Kind != KindTagSettle || ev.TID != 3 || ev.Period != 8 || ev.Offset != 5 {
		t.Fatalf("round trip mangled event: %+v", ev)
	}
	// Zero fields must be omitted to keep traces compact.
	if strings.Contains(lines[0], `"ack"`) || strings.Contains(lines[0], `"tids"`) {
		t.Fatalf("zero fields serialized: %s", lines[0])
	}
}

type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("disk full")
	}
	w.n--
	return len(p), nil
}

func TestJSONLSinkStickyError(t *testing.T) {
	// Writes are buffered, so the failure surfaces on Flush (or on the
	// Emit whose encode crosses the buffer boundary), stays sticky, and
	// later Emits must not clear it.
	sink := NewStreamSink(&failWriter{n: 0}, JSONL)
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

func TestJSONLSinkBuffersWrites(t *testing.T) {
	// The satellite contract: events accumulate in the buffer (no
	// syscall per event) and reach the writer on Flush.
	cw := &countWriter{}
	sink := NewStreamSink(cw, JSONL)
	for i := 0; i < 100; i++ {
		sink.Emit(Event{Kind: KindSlotClose, Slot: i})
	}
	if cw.writes != 0 {
		t.Fatalf("expected buffered writes, saw %d before flush", cw.writes)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if cw.writes == 0 || cw.bytes == 0 {
		t.Fatal("flush wrote nothing")
	}
	lines := bytes.Count(cw.buf.Bytes(), []byte("\n"))
	if lines != 100 {
		t.Fatalf("flushed %d lines, want 100", lines)
	}
}

type countWriter struct {
	buf    bytes.Buffer
	writes int
	bytes  int
}

func (w *countWriter) Write(p []byte) (int, error) {
	w.writes++
	w.bytes += len(p)
	return w.buf.Write(p)
}

func TestMetricsSnapshotDeterministic(t *testing.T) {
	build := func() Snapshot {
		m := NewMetrics()
		m.Add("zeta", 3)
		m.Inc("alpha")
		m.Emit(Event{Kind: KindSlotOpen})
		return m.Snapshot()
	}
	a, b := build(), build()
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatalf("snapshots differ:\n%s\n%s", ja, jb)
	}
	want := []CounterSnapshot{{"alpha", 1}, {"events_slot_open", 1}, {"zeta", 3}}
	if !reflect.DeepEqual(a.Counters, want) {
		t.Fatalf("counters %+v, want sorted %+v", a.Counters, want)
	}
	if got, want := a.String(), fmt.Sprintf("%-32s 1\n%-32s 1\n%-32s 3\n", "alpha", "events_slot_open", "zeta"); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestMetricsNilSafe(t *testing.T) {
	var m *Metrics
	m.Inc("x")
	m.Add("x", 2)
	m.Emit(Event{Kind: KindSlotOpen})
	if sn := m.Snapshot(); len(sn.Counters) != 0 || m.Counters() != nil {
		t.Fatal("nil metrics produced data")
	}
}

func TestTracerConcurrentEmit(t *testing.T) {
	mem := NewMemorySink()
	census := NewMetrics()
	tr := New(mem, census)
	var wg sync.WaitGroup
	const workers, per = 8, 100
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tr.Emit(Event{Kind: KindJobStart, Job: w*per + i})
			}
		}(w)
	}
	wg.Wait()
	if mem.Len() != workers*per {
		t.Fatalf("lost events: %d", mem.Len())
	}
	sn := census.Snapshot()
	if sn.Counters[0].Value != workers*per {
		t.Fatalf("counter %d want %d", sn.Counters[0].Value, workers*per)
	}
}

func TestOfKind(t *testing.T) {
	evs := []Event{
		{Kind: KindSlotOpen, Slot: 0},
		{Kind: KindSlotClose, Slot: 0},
		{Kind: KindSlotOpen, Slot: 1},
	}
	opens := OfKind(evs, KindSlotOpen)
	if len(opens) != 2 || opens[1].Slot != 1 {
		t.Fatalf("filter wrong: %+v", opens)
	}
}

func TestTracerWants(t *testing.T) {
	var nilTr *Tracer
	if nilTr.Wants(KindSlotClose) || New().Wants(KindSlotClose) {
		t.Fatal("a disabled tracer wants events")
	}
	tr := New(NewMemorySink())
	tr.Mute(KindSlotOpen)
	if tr.Wants(KindSlotOpen) || !tr.Wants(KindSlotClose) {
		t.Fatalf("Wants: slot_open %v (muted), slot_close %v", tr.Wants(KindSlotOpen), tr.Wants(KindSlotClose))
	}
}

// MemorySink keeps clones: the producer's slices may be overwritten
// after Emit, and nil and empty slices keep their nil-ness.
func TestMemorySinkClonesBorrowedSlices(t *testing.T) {
	sink := NewMemorySink()
	tids := []int{1, 2}
	sink.Emit(Event{Kind: KindSlotClose, TIDs: tids, Decoded: tids[:1]})
	sink.Emit(Event{Kind: KindSlotClose, TIDs: tids[:0]})
	tids[0], tids[1] = 7, 8
	evs := sink.Events()
	if got := evs[0]; got.TIDs[0] != 1 || got.TIDs[1] != 2 || got.Decoded[0] != 1 {
		t.Fatalf("kept event changed with the producer's slice: %+v", got)
	}
	if got := evs[1]; got.TIDs == nil || len(got.TIDs) != 0 || got.Decoded != nil {
		t.Fatalf("empty TIDs must stay empty and non-nil, nil Decoded nil: %#v", got)
	}
}
