package sim

import (
	"errors"
	"fmt"

	"repro/internal/obs"
)

// event is one scheduled callback. Events fire in timestamp order;
// events with equal timestamps fire in the order they were scheduled
// (FIFO), which keeps multi-entity simulations deterministic. The engine
// owns its events and recycles them, so callers refer to one through a
// Handle rather than a pointer.
type event struct {
	at    Time
	seq   uint64 // scheduling order; unique per engine, never reused
	name  string // optional label for tracing
	fire  func(now Time)
	index int // heap index; -1 while fired, cancelled or free
}

// before is the engine's total order: (at, seq) lexicographically.
func (a *event) before(b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Handle names one scheduling of an event. The engine recycles events
// once they fire or are cancelled; a handle keeps the scheduling's
// sequence number, so a handle that outlives its event never reaches
// the event's next use. The zero Handle names nothing.
type Handle struct {
	ev  *event
	seq uint64
}

// Cancelled reports whether the event has been cancelled or has already
// fired. It is true for the zero Handle.
func (h Handle) Cancelled() bool {
	return h.ev == nil || h.ev.seq != h.seq || h.ev.index < 0
}

// heapArity is the queue's branching factor. A 4-ary heap is half as
// deep as a binary one, so the sift-down in every Step visits half as
// many levels for a few more sibling compares.
const heapArity = 4

// Engine is a single-threaded discrete-event simulator. It is not safe
// for concurrent use; all entities in a simulation share one engine and
// run on its virtual clock.
//
// The queue is a 4-ary min-heap over (at, seq), a total order, so every
// correct priority queue pops events in the same sequence. Fired and
// cancelled events go to a free list that Schedule draws from first;
// the list never holds more events than were once pending together.
type Engine struct {
	now   Time
	queue []*event
	free  []*event
	seq   uint64
	trace *obs.Tracer
}

// NewEngine returns an engine with the clock at zero and an empty queue.
func NewEngine() *Engine { return &Engine{} }

// SetTracer attaches an observability tracer; every fired event is then
// emitted as an obs.KindSimEvent record. A nil tracer (the default)
// costs nothing. Event-level simulations fire many thousands of events
// per simulated second — mute obs.KindSimEvent on the tracer when only
// protocol or energy events are wanted.
func (e *Engine) SetTracer(t *obs.Tracer) { e.trace = t }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// ErrPast is returned when scheduling an event before the current time.
var ErrPast = errors.New("sim: event scheduled in the past")

// Schedule enqueues fn to run at absolute time at and returns its
// handle. Scheduling at the current time is allowed (the event fires
// within the current Run loop, after already-queued events with the
// same timestamp). Callers that schedule the same callback repeatedly
// should bind it once: a func value built per call is the one
// allocation left on this path.
//
//alloc:hot every simulated edge, energy step and timer interrupt passes through here
func (e *Engine) Schedule(at Time, name string, fn func(now Time)) (Handle, error) {
	if at < e.now {
		return Handle{}, pastError(at, e.now, name)
	}
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		ev = newEvent()
	}
	e.seq++
	ev.at, ev.seq, ev.name, ev.fire = at, e.seq, name, fn
	ev.index = len(e.queue)
	e.queue = append(e.queue, ev)
	e.up(ev.index)
	return Handle{ev, ev.seq}, nil
}

// newEvent grows the engine's event population; steady state draws
// from the free list instead. It and pastError stay out of line so
// their allocations are not inlined into the //alloc:hot Schedule.
//
//go:noinline
func newEvent() *event { return &event{} }

//go:noinline
func pastError(at, now Time, name string) error {
	return fmt.Errorf("%w: at=%v now=%v (%s)", ErrPast, at, now, name)
}

// After enqueues fn to run delay ticks from now. Negative delays are
// clamped to zero.
func (e *Engine) After(delay Time, name string, fn func(now Time)) Handle {
	if delay < 0 {
		delay = 0
	}
	h, _ := e.Schedule(e.now+delay, name, fn) // never in the past
	return h
}

// Cancel removes a pending event from the queue. Cancelling the zero
// Handle, or an event that already fired or was cancelled, is a no-op —
// including when the engine has since reused the event for another
// scheduling, which the handle's sequence number tells apart.
func (e *Engine) Cancel(h Handle) {
	if h.Cancelled() {
		return
	}
	e.remove(h.ev.index)
	e.recycle(h.ev)
}

// Step fires the single earliest event and advances the clock to it.
// It reports whether an event was available. The event is recycled
// before its callback runs, so a callback that reschedules itself
// reuses its own event.
//
//alloc:hot pops and fires every event of an event-level simulation
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := e.queue[0]
	e.remove(0)
	at, name, fire := ev.at, ev.name, ev.fire
	e.recycle(ev)
	e.now = at
	if e.trace.Enabled() {
		e.trace.Emit(obs.Event{Kind: obs.KindSimEvent, T: at.Seconds(), Name: name})
	}
	fire(at)
	return true
}

// recycle parks an unqueued event on the free list. Dropping fn lets
// the callback's captures be collected; seq stays, so handles to this
// scheduling keep reading as fired or cancelled until the event is
// reused.
func (e *Engine) recycle(ev *event) {
	ev.fire = nil
	e.free = append(e.free, ev)
}

// remove takes the event at heap index i out of the queue.
func (e *Engine) remove(i int) {
	q := e.queue
	n := len(q) - 1
	ev := q[i]
	last := q[n]
	q[n] = nil
	e.queue = q[:n]
	if i < n {
		q[i] = last
		last.index = i
		e.up(i)
		e.down(last.index)
	}
	ev.index = -1
}

// up sifts the event at index i toward the root.
func (e *Engine) up(i int) {
	q := e.queue
	ev := q[i]
	for i > 0 {
		p := (i - 1) / heapArity
		if !ev.before(q[p]) {
			break
		}
		q[i] = q[p]
		q[i].index = i
		i = p
	}
	q[i] = ev
	ev.index = i
}

// down sifts the event at index i toward the leaves.
func (e *Engine) down(i int) {
	q := e.queue
	n := len(q)
	ev := q[i]
	for {
		c := heapArity*i + 1
		if c >= n {
			break
		}
		m := c
		for j, end := c+1, min(c+heapArity, n); j < end; j++ {
			if q[j].before(q[m]) {
				m = j
			}
		}
		if !q[m].before(ev) {
			break
		}
		q[i] = q[m]
		q[i].index = i
		i = m
	}
	q[i] = ev
	ev.index = i
}

// RunUntil fires events in order until the queue drains or the
// deadline passes. The clock never advances past the deadline:
// if the next event is later, the clock is set to exactly the deadline
// and RunUntil returns. It returns the time at which it stopped.
func (e *Engine) RunUntil(deadline Time) Time {
	for {
		if len(e.queue) == 0 {
			if e.now < deadline && deadline != Never {
				e.now = deadline
			}
			return e.now
		}
		if e.queue[0].at > deadline {
			e.now = deadline
			return e.now
		}
		e.Step()
	}
}

// Run fires events until the queue drains, returning the final clock
// value.
func (e *Engine) Run() Time { return e.RunUntil(Never) }
