package obs

import (
	"io"
	"sync"
	"testing"
	"time"
)

// BenchmarkEmitDisabled measures the disabled path every hot loop pays:
// a nil tracer and the Enabled() guard. This is the cost the <5%
// BenchmarkFleetThroughput budget rides on — it must stay at a couple
// of nanoseconds.
func BenchmarkEmitDisabled(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if tr.Enabled() {
			tr.Emit(Event{Kind: KindSlotClose, Slot: i})
		}
	}
}

// BenchmarkEmitNilUnguarded measures Emit called straight on a nil
// tracer (call sites that skip the Enabled guard for cheap events).
func BenchmarkEmitNilUnguarded(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(Event{Kind: KindSlotClose, Slot: i})
	}
}

// BenchmarkEmitMemory measures the enabled path into the in-memory
// aggregator.
func BenchmarkEmitMemory(b *testing.B) {
	mem := NewMemorySink()
	tr := New(mem)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(Event{Kind: KindSlotClose, Slot: i})
		if mem.Len() > 1<<16 {
			mem.Drain()
		}
	}
}

// BenchmarkEmitJSONL measures the enabled path through JSON encoding.
func BenchmarkEmitJSONL(b *testing.B) {
	tr := New(NewStreamSink(io.Discard, JSONL))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(Event{Kind: KindSlotClose, Slot: i, TIDs: []int{1, 2}, Collision: true})
	}
}

// traceBenchMix is the steady-state event mix of a protocol run: a
// beacon open and a reader verdict per slot, with an occasional settle.
// Both encoder benchmarks pump the same mix so the comparison is
// apples to apples.
func traceBenchMix() []Event {
	return []Event{
		{Kind: KindSlotOpen, Slot: 1, ACK: true},
		{Kind: KindSlotClose, Slot: 1, TIDs: []int{3, 7}, Decoded: []int{3}, Collision: true},
		{Kind: KindSlotOpen, Slot: 2},
		{Kind: KindSlotClose, Slot: 2, TIDs: []int{5}, Decoded: []int{5}, ACK: true},
		{Kind: KindTagSettle, Slot: 2, TID: 5, Period: 16, Offset: 2},
	}
}

var (
	jsonlEncodeOnce sync.Once
	jsonlEncodeNs   float64
)

// jsonlEncodeBaseline times the buffered JSONL encoder over the bench
// mix once, cached so the binary sub-benchmark's speedup metric is
// stable across -count runs.
func jsonlEncodeBaseline(b *testing.B) float64 {
	b.Helper()
	jsonlEncodeOnce.Do(func() {
		evs := traceBenchMix()
		sink := NewStreamSink(io.Discard, JSONL)
		for i := range evs { // warm the encoder outside the timed region
			sink.Emit(evs[i])
		}
		const rounds = 20000
		start := time.Now() //lint:allow determinism-taint wall-clock measurement of the encode baseline, not simulation state
		for r := 0; r < rounds; r++ {
			for i := range evs {
				sink.Emit(evs[i])
			}
		}
		jsonlEncodeNs = float64(time.Since(start).Nanoseconds()) / float64(rounds*len(evs)) //lint:allow determinism-taint wall-clock measurement of the encode baseline, not simulation state
		_ = sink.Close()
	})
	return jsonlEncodeNs
}

// BenchmarkTraceEncode compares the two trace encoders over the same
// steady-state event mix; one op is one pass over the mix. The binary
// sub-benchmark reports "speedup-vs-jsonl" (the PR 10 floor is 5x,
// asserted by make bench-smoke) and must run at zero allocations per
// event.
func BenchmarkTraceEncode(b *testing.B) {
	evs := traceBenchMix()
	b.Run("jsonl", func(b *testing.B) {
		sink := NewStreamSink(io.Discard, JSONL)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := range evs {
				sink.Emit(evs[j])
			}
		}
		b.StopTimer()
		if err := sink.Close(); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(b.N*len(evs))/b.Elapsed().Seconds(), "events/s")
	})
	b.Run("binary", func(b *testing.B) {
		baseline := jsonlEncodeBaseline(b)
		sink := NewStreamSink(io.Discard, Binary)
		for j := range evs { // warm the batch buffer outside the timed region
			sink.Emit(evs[j])
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := range evs {
				sink.Emit(evs[j])
			}
		}
		b.StopTimer()
		if err := sink.Close(); err != nil {
			b.Fatal(err)
		}
		perEvent := float64(b.Elapsed().Nanoseconds()) / float64(b.N*len(evs))
		b.ReportMetric(float64(b.N*len(evs))/b.Elapsed().Seconds(), "events/s")
		b.ReportMetric(baseline/perEvent, "speedup-vs-jsonl")
	})
}
