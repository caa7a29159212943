package sim

import (
	"errors"
	"fmt"

	"repro/internal/obs"
)

// event is one heap entry: a scheduled callback, or the earliest
// pending callback of a Cursor. Events fire in timestamp order; events
// with equal timestamps fire in the order they were scheduled (FIFO),
// which keeps multi-entity simulations deterministic. The engine owns
// its scheduled events and recycles them, so callers refer to one
// through a Handle rather than a pointer.
type event struct {
	at     Time
	seq    uint64 // scheduling order; unique per engine, never reused
	name   string // optional label for tracing
	fire   func(now Time)
	index  int     // heap index; -1 while fired, cancelled or free
	cursor *Cursor // owner of a cursor's event; nil for a scheduled event
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
// Every pending callback has a key (at, seq), and seq comes from one
// counter whichever queue holds the callback, so the keys are totally
// ordered and the engine fires in that order across three queues:
//   - a 4-ary min-heap of scheduled events and armed cursors;
//   - constant-delay FIFO lanes (Lane), whose heads are compared with
//     the heap head at every Step;
//   - cursors (Cursor), each of which keeps only its earliest callback
//     in the heap.
//
// Fired and cancelled heap events go to a free list that Schedule
// draws from first; the list never holds more events than were once
// pending together.
type Engine struct {
	now   Time
	queue []*event
	free  []*event
	lanes []*Lane
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
//alloc:hot every simulated timer interrupt and beacon timeout passes through here
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
// It reports whether an event was available. A scheduled event is
// recycled before its callback runs, so a callback that reschedules
// itself reuses its own event.
func (e *Engine) Step() bool { return e.fireNext(Never) }

// fireNext fires the earliest pending callback if it is due by
// deadline, and reports whether it fired one.
//
//alloc:hot pops and fires every event of an event-level simulation
func (e *Engine) fireNext(deadline Time) bool {
	var (
		at   Time
		name string
		fire func(now Time)
	)
	l := e.nextLane()
	switch {
	case l != nil:
		if l.ring[l.head].at > deadline {
			return false
		}
		at, name, fire = l.pop()
	case len(e.queue) == 0 || e.queue[0].at > deadline:
		return false
	case e.queue[0].cursor != nil:
		at, name, fire = e.queue[0].cursor.pop()
	default:
		ev := e.queue[0]
		e.remove(0)
		at, name, fire = ev.at, ev.name, ev.fire
		e.recycle(ev)
	}
	e.now = at
	if e.trace.Enabled() {
		e.trace.Emit(obs.Event{Kind: obs.KindSimEvent, T: at.Seconds(), Name: name})
	}
	fire(at)
	return true
}

// nextLane returns the lane whose head precedes every other pending
// callback, or nil when the heap head comes first or nothing is
// pending.
func (e *Engine) nextLane() *Lane {
	var (
		best *Lane
		at   Time
		seq  uint64
	)
	have := len(e.queue) > 0
	if have {
		at, seq = e.queue[0].at, e.queue[0].seq
	}
	for _, l := range e.lanes {
		if l.n == 0 {
			continue
		}
		h := &l.ring[l.head]
		if !have || h.at < at || (h.at == at && h.seq < seq) {
			best, at, seq, have = l, h.at, h.seq, true
		}
	}
	return best
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
// and RunUntil returns. A deadline before the current time fires
// nothing and leaves the clock where it is. It returns the time at
// which it stopped.
func (e *Engine) RunUntil(deadline Time) Time {
	for e.fireNext(deadline) {
	}
	if e.now < deadline && deadline != Never {
		e.now = deadline
	}
	return e.now
}

// Run fires events until the queue drains, returning the final clock
// value.
func (e *Engine) Run() Time { return e.RunUntil(Never) }

// Lane is a FIFO of callbacks that each fire a fixed delay after they
// were pushed. The clock never runs backwards and sequence numbers only
// grow, so a later push has a key (at, seq) no smaller than any earlier
// one: the FIFO order is the engine's order, and the lane needs no
// heap. Lane callbacks cannot be cancelled, so Push returns no Handle
// and a lane never holds a dead entry.
type Lane struct {
	e     *Engine
	delay Time
	ring  []laneEvent // power-of-two length; n entries from head, wrapping
	head  int
	n     int
}

type laneEvent struct {
	at   Time
	seq  uint64
	name string
	fire func(now Time)
}

// Lane returns the engine's lane for delay, creating it on first use.
// Every caller asking for one delay shares its lane. Negative delays
// are clamped to zero.
func (e *Engine) Lane(delay Time) *Lane {
	delay = max(delay, 0)
	for _, l := range e.lanes {
		if l.delay == delay {
			return l
		}
	}
	l := &Lane{e: e, delay: delay}
	e.lanes = append(e.lanes, l)
	return l
}

// Push enqueues fn to run the lane's delay from now. It takes the next
// sequence number, so it fires exactly where
// After(delay, name, fn) would.
//
//alloc:hot every energy tick of every tag passes through here
func (l *Lane) Push(name string, fn func(now Time)) {
	if l.n == len(l.ring) {
		l.grow()
	}
	e := l.e
	e.seq++
	l.ring[(l.head+l.n)&(len(l.ring)-1)] = laneEvent{at: e.now + l.delay, seq: e.seq, name: name, fire: fn}
	l.n++
}

// grow doubles the ring, unwrapping it. It stays out of line so its
// allocation is not inlined into the //alloc:hot Push.
//
//go:noinline
func (l *Lane) grow() {
	ring := make([]laneEvent, max(2*len(l.ring), 8))
	for i := 0; i < l.n; i++ {
		ring[i] = l.ring[(l.head+i)&(len(l.ring)-1)]
	}
	l.ring, l.head = ring, 0
}

// pop removes the lane's head.
func (l *Lane) pop() (Time, string, func(now Time)) {
	h := &l.ring[l.head]
	at, name, fire := h.at, h.name, h.fire
	h.fire = nil
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
	return at, name, fire
}

// Cursor fires a stream of callbacks that arrive in bulk, such as the
// edges of one beacon at one tag, with one heap entry instead of one
// per callback. Each Push takes the sequence number Schedule would
// have taken, and the cursor keeps its callbacks sorted by (at, seq)
// and arms its one event at the earliest. So every callback fires
// exactly where its own scheduled event would have, however pushes
// interleave with other scheduling.
type Cursor struct {
	e     *Engine
	ev    event        // the heap entry while anything is pending
	items []cursorItem // pending from next on, sorted by (at, seq)
	next  int
}

type cursorItem struct {
	at   Time
	seq  uint64
	fire func(now Time)
}

// NewCursor returns an empty cursor whose callbacks trace as name.
func (e *Engine) NewCursor(name string) *Cursor {
	c := &Cursor{e: e}
	c.ev = event{name: name, index: -1, cursor: c}
	return c
}

// Push adds fn to run at the absolute time at; a time already past is
// clamped to now, as After clamps a negative delay.
//
//alloc:hot every simulated DL edge at every tag passes through here
func (c *Cursor) Push(at Time, fn func(now Time)) {
	e := c.e
	at = max(at, e.now)
	e.seq++
	if c.next > 0 && len(c.items) == cap(c.items) { // reuse the fired prefix before growing
		c.items = c.items[:copy(c.items, c.items[c.next:])]
		c.next = 0
	}
	it := cursorItem{at: at, seq: e.seq, fire: fn}
	c.items = append(c.items, it)
	// it has the largest seq, so it goes after every item not later.
	i := len(c.items) - 1
	for ; i > c.next && c.items[i-1].at > at; i-- {
		c.items[i] = c.items[i-1]
	}
	c.items[i] = it
	if i > c.next {
		return
	}
	ev := &c.ev
	ev.at, ev.seq = at, it.seq
	if ev.index < 0 {
		ev.index = len(e.queue)
		e.queue = append(e.queue, ev)
	}
	e.up(ev.index) // a new earliest item only moves the key down
}

// pop takes the earliest item off the cursor, whose event is the heap
// head, and re-arms the event at the next item.
//
//alloc:hot fires every simulated DL edge at every tag
func (c *Cursor) pop() (Time, string, func(now Time)) {
	it := c.items[c.next]
	c.items[c.next].fire = nil
	c.next++
	if c.next == len(c.items) {
		c.items, c.next = c.items[:0], 0
		c.e.remove(0)
	} else {
		h := &c.items[c.next]
		c.ev.at, c.ev.seq = h.at, h.seq
		c.e.down(0)
	}
	return it.at, c.ev.name, it.fire
}

// Cancel drops every pending callback of the cursor.
func (c *Cursor) Cancel() {
	if c.ev.index >= 0 {
		c.e.remove(c.ev.index)
	}
	clear(c.items)
	c.items, c.next = c.items[:0], 0
}
