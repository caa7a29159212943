package fleetd

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/obs"
)

// TestEventLogTrimIsAmortized fills the log twenty windows over. It
// must keep exactly the last window, count everything older as drops,
// and allocate far less per Emit than a copy of the window (~164 KB).
func TestEventLogTrimIsAmortized(t *testing.T) {
	const n = 20 * streamBuffer
	l := newEventLog(streamBuffer)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 1; i <= n; i++ {
		l.Emit(obs.Event{Kind: obs.KindJobFinish, Job: i, Name: "vehicle", Detail: "ok"})
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per >= 1024 {
		t.Errorf("Emit allocates %d B per event, want < 1024", per)
	}

	evs, first, dropped, closed, _ := l.since(0)
	if len(evs) != streamBuffer || first != n-streamBuffer+1 || dropped != n-streamBuffer || closed {
		t.Fatalf("since(0) = %d events from %d, %d dropped, closed=%v; want %d from %d, %d dropped, open",
			len(evs), first, dropped, closed, streamBuffer, n-streamBuffer+1, n-streamBuffer)
	}
	for i, ev := range evs {
		if ev.Job != int(first)+i {
			t.Fatalf("event at seq %d carries job %d", int(first)+i, ev.Job)
		}
	}
	// A reader inside the window sees the tail and no drops.
	evs, first, dropped, _, _ = l.since(n - 10)
	if len(evs) != 10 || first != n-9 || dropped != 0 || evs[9].Job != n {
		t.Errorf("since(n-10) = %d events from %d, %d dropped", len(evs), first, dropped)
	}
	// A reader one event behind the window sees exactly one drop.
	if _, first, dropped, _, _ = l.since(n - streamBuffer - 1); first != n-streamBuffer+1 || dropped != 1 {
		t.Errorf("since one behind the window: first %d, %d dropped; want %d, 1", first, dropped, n-streamBuffer+1)
	}
}

// TestEventLogSincePastEnd: an offset past the last sequence, up to
// the largest ?after= a client can send, returns nothing and no drops.
func TestEventLogSincePastEnd(t *testing.T) {
	l := newEventLog(4)
	for i := 1; i <= 6; i++ {
		l.Emit(obs.Event{Kind: obs.KindJobFinish, Job: i})
	}
	for _, after := range []uint64{6, 7, math.MaxUint64} {
		if evs, _, dropped, _, _ := l.since(after); len(evs) != 0 || dropped != 0 {
			t.Errorf("since(%d) = %d events, %d dropped; want none", after, len(evs), dropped)
		}
	}
}
