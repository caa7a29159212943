package fleetd

import (
	"sync"

	"repro/internal/obs"
)

// eventLog is a per-job sequenced event journal backing /stream. Every
// lifecycle event gets a 1-based sequence number at append time; a
// subscriber reads forward from any offset, so a client whose stream
// connection died reconnects with ?after=<last seq> and receives
// exactly the events it missed — the resumable-stream half of the
// resilience contract. The log retains the most recent max events:
// an offset that has fallen behind the retained window reports the gap
// as a drop count instead of blocking or duplicating. Trimming is
// amortized: dropped events stay in front of the window until there
// are as many as the window holds, then the window is copied down once,
// so each event is copied at most once.
//
// It implements obs.Sink, so the fleet pool's tracer observer feeds it
// directly from worker goroutines.
type eventLog struct {
	mu     sync.Mutex
	max    int
	base   uint64 // sequence of events[head] minus 1 (seqs are 1-based)
	head   int    // events[head:] is the retained window
	events []obs.Event
	closed bool
	wake   chan struct{} // closed and replaced on every append/Close
}

// newEventLog builds a log retaining at most max events (min 1).
func newEventLog(max int) *eventLog {
	if max < 1 {
		max = 1
	}
	return &eventLog{max: max, wake: make(chan struct{})}
}

// Emit implements obs.Sink; the log keeps a clone of the borrowed
// event.
func (l *eventLog) Emit(ev obs.Event) {
	ev = ev.Clone()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.events = append(l.events, ev)
	if len(l.events)-l.head > l.max {
		l.head++
		l.base++
	}
	if l.head == l.max {
		n := copy(l.events, l.events[l.head:])
		clear(l.events[n:])
		l.events = l.events[:n]
		l.head = 0
	}
	w := l.wake
	l.wake = make(chan struct{})
	l.mu.Unlock()
	close(w)
}

// Close marks the log complete (the job reached a terminal state) and
// wakes every waiting reader. Safe to call more than once.
func (l *eventLog) Close() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	w := l.wake
	l.mu.Unlock()
	close(w)
}

// since returns the retained events with sequence > after: the batch,
// the sequence of its first element, how many requested events fell
// behind the retention window (counted as drops), whether the log is
// closed, and a channel that signals the next append or close. An
// empty batch with closed=true means the stream is complete.
func (l *eventLog) since(after uint64) (evs []obs.Event, first uint64, dropped uint64, closed bool, wait <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	lo := after
	if lo < l.base {
		dropped = l.base - lo
		lo = l.base
	}
	if idx := l.head + int(lo-l.base); idx < len(l.events) {
		evs = append([]obs.Event(nil), l.events[idx:]...)
		first = lo + 1
	}
	return evs, first, dropped, l.closed, l.wake
}
