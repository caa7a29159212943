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
// resilience contract. The log retains the most recent max events (an
// obs.Recent, which trims in amortized O(1)): an offset that has
// fallen behind the retained window reports the gap as a drop count
// instead of blocking or duplicating.
//
// It implements obs.Sink, so the fleet pool's tracer observer feeds it
// directly from worker goroutines.
type eventLog struct {
	mu     sync.Mutex
	events obs.Recent[obs.Event]
	total  uint64 // events ever appended: the last one's sequence
	closed bool
	wake   chan struct{} // closed and replaced on every append/Close
}

// newEventLog builds a log retaining at most max events (min 1).
func newEventLog(max int) *eventLog {
	return &eventLog{events: obs.NewRecent[obs.Event](max), wake: make(chan struct{})}
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
	l.events.Add(ev)
	l.total++
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
	window := l.events.All()
	base := l.total - uint64(len(window)) // sequence of window[0] minus 1 (seqs are 1-based)
	lo := after
	if lo < base {
		dropped = base - lo
		lo = base
	}
	if idx := lo - base; idx < uint64(len(window)) {
		evs = append([]obs.Event(nil), window[idx:]...)
		first = lo + 1
	}
	return evs, first, dropped, l.closed, l.wake
}
