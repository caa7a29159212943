package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{0, "0µs"},
		{999, "999µs"},
		{Millisecond, "1.000ms"},
		{1500, "1.500ms"},
		{Second, "1.000000s"},
		{90*Second + 500*Millisecond, "90.500000s"},
		{Never, "never"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if FromSeconds(1.5) != 1500*Millisecond {
		t.Errorf("FromSeconds(1.5) = %v", FromSeconds(1.5))
	}
	if FromSeconds(-1) != 0 {
		t.Errorf("FromSeconds(-1) = %v, want 0", FromSeconds(-1))
	}
	if got := (2 * Second).Seconds(); got != 2.0 {
		t.Errorf("Seconds() = %v", got)
	}
	if got := (3 * Millisecond).Milliseconds(); got != 3.0 {
		t.Errorf("Milliseconds() = %v", got)
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.After(30, "c", func(Time) { order = append(order, 3) })
	e.After(10, "a", func(Time) { order = append(order, 1) })
	e.After(20, "b", func(Time) { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events fired out of order: %v", order)
	}
	if e.Now() != 30 {
		t.Errorf("clock = %v, want 30", e.Now())
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.After(5, "tie", func(Time) { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-timestamp events not FIFO: %v", order)
		}
	}
}

func TestEngineSchedulePast(t *testing.T) {
	e := NewEngine()
	e.After(10, "x", func(Time) {})
	e.Run()
	if _, err := e.Schedule(5, "past", func(Time) {}); err == nil {
		t.Fatal("expected error scheduling in the past")
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.After(10, "x", func(Time) { fired = true })
	e.Cancel(ev)
	if !ev.Cancelled() {
		t.Error("event not marked cancelled")
	}
	e.Run()
	if fired {
		t.Error("cancelled event fired")
	}
	// Double-cancel and zero-handle cancel must be safe.
	e.Cancel(ev)
	e.Cancel(Handle{})
	if e.Pending() != 0 {
		t.Errorf("pending = %d after cancels, want 0", e.Pending())
	}
	if !(Handle{}).Cancelled() {
		t.Error("zero handle not reported cancelled")
	}
}

func TestEngineCancelMiddleOfHeap(t *testing.T) {
	e := NewEngine()
	var fired []int
	events := make([]Handle, 20)
	for i := range events {
		i := i
		events[i] = e.After(Time(i), "n", func(Time) { fired = append(fired, i) })
	}
	for i := 5; i < 15; i++ {
		e.Cancel(events[i])
	}
	e.Run()
	if len(fired) != 10 {
		t.Fatalf("fired %d events, want 10: %v", len(fired), fired)
	}
	for _, v := range fired {
		if v >= 5 && v < 15 {
			t.Fatalf("cancelled event %d fired", v)
		}
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick func(Time)
	tick = func(Time) {
		count++
		e.After(10, "tick", tick)
	}
	e.After(10, "tick", tick)
	end := e.RunUntil(100)
	if end != 100 {
		t.Errorf("RunUntil returned %v, want 100", end)
	}
	if count != 10 {
		t.Errorf("ticks = %d, want 10", count)
	}
	if e.Now() != 100 {
		t.Errorf("clock = %v, want exactly the deadline", e.Now())
	}
}

func TestEngineRunUntilAdvancesIdleClock(t *testing.T) {
	e := NewEngine()
	e.RunUntil(500)
	if e.Now() != 500 {
		t.Errorf("idle RunUntil left clock at %v", e.Now())
	}
}

// TestEngineRunUntilPastDeadline: a deadline before the clock fires
// nothing and leaves the clock where it is. A lane's FIFO order rests
// on a clock that never runs backwards.
func TestEngineRunUntilPastDeadline(t *testing.T) {
	e := NewEngine()
	e.After(20, "x", func(Time) {})
	e.RunUntil(10)
	if got := e.RunUntil(5); got != 10 || e.Now() != 10 || e.Pending() != 1 {
		t.Fatalf("RunUntil(5) at 10: returned %v, clock %v, pending %d; want 10, 10, 1", got, e.Now(), e.Pending())
	}
}

// TestEngineStop: a run stops at its deadline with the events beyond
// it still queued, and a later RunUntil picks them up.
func TestEngineStop(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick func(Time)
	tick = func(Time) {
		count++
		e.After(1, "tick", tick)
	}
	e.After(1, "tick", tick)
	e.RunUntil(5)
	if count != 5 {
		t.Errorf("RunUntil(5) fired %d ticks, want 5", count)
	}
	if e.Pending() == 0 {
		t.Error("stopping at the deadline should leave pending events queued")
	}
	e.RunUntil(8)
	if count != 8 {
		t.Errorf("resumed run fired %d ticks in total, want 8", count)
	}
}

func TestEngineScheduleDuringEvent(t *testing.T) {
	e := NewEngine()
	var order []string
	e.After(10, "outer", func(now Time) {
		order = append(order, "outer")
		// Same-time event scheduled from within an event must still fire.
		e.After(0, "inner", func(Time) { order = append(order, "inner") })
	})
	e.Run()
	if len(order) != 2 || order[1] != "inner" {
		t.Fatalf("inner event mishandled: %v", order)
	}
}

// TestEngineStaleHandle keeps a handle past its event's firing, lets a
// new scheduling reuse the recycled event, and cancels the stale handle:
// the new event must be untouched.
func TestEngineStaleHandle(t *testing.T) {
	e := NewEngine()
	stale := e.After(1, "first", func(Time) {})
	e.Run()
	if !stale.Cancelled() {
		t.Fatal("fired event not reported cancelled")
	}
	fired := false
	fresh := e.After(1, "second", func(Time) { fired = true })
	if fresh.ev != stale.ev {
		t.Fatal("engine did not reuse the fired event; the test needs the recycled slot")
	}
	e.Cancel(stale)
	if fresh.Cancelled() || e.Pending() != 1 {
		t.Fatalf("stale cancel hit the reused event: cancelled=%v pending=%d", fresh.Cancelled(), e.Pending())
	}
	e.Run()
	if !fired {
		t.Error("event sharing a stale handle's slot did not fire")
	}
	if !fresh.Cancelled() {
		t.Error("fired event not reported cancelled")
	}
}

// TestEngineSelfCancel cancels an event from inside its own callback,
// after the callback has scheduled a successor that reuses the slot.
func TestEngineSelfCancel(t *testing.T) {
	e := NewEngine()
	var self Handle
	var order []string
	self = e.After(1, "self", func(Time) {
		order = append(order, "self")
		e.After(1, "next", func(Time) { order = append(order, "next") })
		e.Cancel(self)
		e.Cancel(self)
	})
	e.Run()
	if len(order) != 2 || order[1] != "next" {
		t.Fatalf("self-cancel disturbed the queue: %v", order)
	}
}

// TestEngineMatchesReference runs a seeded random mix of Schedule,
// After(0), Cancel, lane pushes, cursor loads and cursor cancels, and
// of RunUntil and Step, with scheduling from inside callbacks and many
// equal timestamps across the heap, the lanes and the cursors. A
// reference keeps every live callback's (at, seq) in a plain slice and
// fires the least; every callback checks that it is the reference's
// next at the reference's time, and Pending must agree after every
// operation.
func TestEngineMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		r := NewRand(seed)
		runEngineReference(t, 3000, r.Intn)
	}
}

// FuzzEngineMatchesReference drives the reference comparison from the
// fuzz bytes: each byte picks one choice of the operation mix, and a
// pick past the end of the input is 0, which adds no work from a
// callback. One operation runs per input byte, then the engine drains.
func FuzzEngineMatchesReference(f *testing.F) {
	f.Add([]byte{3, 10, 10, 4, 6, 12, 2, 0, 0, 0})
	f.Add([]byte{9, 1, 3, 5, 9, 0, 2, 7, 14, 0, 11, 1, 6, 1, 0, 13, 2, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		pick := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b) % n
		}
		runEngineReference(t, len(data), pick)
	})
}

type refEvent struct {
	at     Time
	seq    uint64
	id     int
	cursor int // index into the cursors, or -1
}

// runEngineReference performs ops operations chosen by pick(n), which
// returns a choice in [0, n), then runs both queues dry.
func runEngineReference(t *testing.T, ops int, pick func(n int) int) {
	t.Helper()
	e := NewEngine()
	lanes := []*Lane{e.Lane(0), e.Lane(3)}
	cursors := []*Cursor{e.NewCursor("c0"), e.NewCursor("c1")}
	var (
		ref     []refEvent
		refSeq  uint64
		handles []Handle // handles[id] is event id's handle; zero for lane and cursor items
		fired   int
		op      int
	)
	check := func() {
		t.Helper()
		if e.Pending() != len(ref) {
			t.Fatalf("op %d: engine pending=%d, reference %d", op, e.Pending(), len(ref))
		}
	}
	// refNext removes and returns the least live reference entry.
	refNext := func() refEvent {
		m := 0
		for i := range ref {
			if ref[i].at < ref[m].at || (ref[i].at == ref[m].at && ref[i].seq < ref[m].seq) {
				m = i
			}
		}
		ev := ref[m]
		ref = append(ref[:m], ref[m+1:]...)
		return ev
	}
	var more func()
	fire := func(id int) func(Time) {
		return func(now Time) {
			if len(ref) == 0 {
				t.Fatalf("op %d: engine fired %d, reference is empty", op, id)
			}
			want := refNext()
			if want.id != id || now != want.at || e.Now() != want.at {
				t.Fatalf("op %d: engine fired %d at %v (now %v), reference %d at %v",
					op, id, now, e.Now(), want.id, want.at)
			}
			fired++
			// A third of callbacks add more work, often at now.
			if pick(3) == 1 {
				more()
			}
		}
	}
	add := func(at Time, cursor int, h Handle) {
		refSeq++
		ref = append(ref, refEvent{at: at, seq: refSeq, id: len(handles), cursor: cursor})
		handles = append(handles, h)
	}
	schedule := func(delay Time) {
		id := len(handles)
		h := e.After(delay, "ref", fire(id))
		add(e.Now()+delay, -1, h)
	}
	pushLane := func(i int) {
		lanes[i].Push("lane", fire(len(handles)))
		add(e.Now()+lanes[i].delay, -1, Handle{})
	}
	// loadCursor pushes a batch into cursor i: times within a few ticks
	// of now, some already past, in no particular order.
	loadCursor := func(i int) {
		for k := pick(4); k >= 0; k-- {
			at := e.Now() + Time(pick(10)) - 2
			cursors[i].Push(at, fire(len(handles)))
			add(max(at, e.Now()), i, Handle{})
		}
	}
	cancelCursor := func(i int) {
		cursors[i].Cancel()
		live := ref[:0]
		for _, ev := range ref {
			if ev.cursor != i {
				live = append(live, ev)
			}
		}
		ref = live
	}
	// cancel cancels any handle ever issued: pending, fired, cancelled,
	// recycled into a newer scheduling, or the zero handle of a lane or
	// cursor item, which names nothing.
	cancel := func() {
		if len(handles) == 0 {
			return
		}
		id := pick(len(handles))
		e.Cancel(handles[id])
		if handles[id] == (Handle{}) {
			return
		}
		for i, ev := range ref {
			if ev.id == id {
				ref = append(ref[:i], ref[i+1:]...)
				return
			}
		}
	}
	more = func() {
		switch pick(6) {
		case 0:
			schedule(Time(pick(3)))
		case 1:
			pushLane(pick(len(lanes)))
		case 2:
			loadCursor(pick(len(cursors)))
		case 3:
			cancelCursor(pick(len(cursors)))
		case 4:
			cancel()
		default:
			schedule(0)
		}
	}

	for op = 0; op < ops; op++ {
		switch k := pick(16); {
		case k < 3:
			before := fired
			stepped := e.Step()
			if stepped != (fired == before+1) || (!stepped && len(ref) > 0) {
				t.Fatalf("op %d: Step=%v fired %d callbacks with %d in the reference",
					op, stepped, fired-before, len(ref))
			}
		case k < 4:
			deadline := e.Now() + Time(pick(4))
			e.RunUntil(deadline)
			for _, ev := range ref {
				if ev.at <= deadline {
					t.Fatalf("op %d: RunUntil(%v) left id %d at %v", op, deadline, ev.id, ev.at)
				}
			}
			if e.Now() != deadline {
				t.Fatalf("op %d: RunUntil(%v) stopped at %v", op, deadline, e.Now())
			}
		case k < 8:
			schedule(Time(pick(8))) // small range: many equal timestamps
		case k < 9:
			schedule(0)
		case k < 11:
			pushLane(pick(len(lanes)))
		case k < 13:
			loadCursor(pick(len(cursors)))
		case k < 14:
			cancelCursor(pick(len(cursors)))
		default:
			cancel()
		}
		check()
	}
	e.Run()
	if len(ref) != 0 {
		t.Fatalf("engine drained with %d reference entries left", len(ref))
	}
	check()
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := NewRand(43)
	same := 0
	a = NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds collide too often: %d/1000", same)
	}
}

func TestRandForkIndependence(t *testing.T) {
	parent := NewRand(7)
	f1 := parent.Fork(1)
	f2 := parent.Fork(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if f1.Uint64() == f2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("forks correlated: %d/1000 identical", same)
	}
}

func TestRandIntnBounds(t *testing.T) {
	r := NewRand(1)
	for n := 1; n <= 64; n++ {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestRandIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestRandIntnUniform(t *testing.T) {
	r := NewRand(99)
	const n, trials = 8, 80000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: %d counts, want ~%.0f", i, c, want)
		}
	}
}

func TestRandFloat64Range(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := NewRand(seed)
		for i := 0; i < 100; i++ {
			f := r.Float64()
			if f < 0 || f >= 1 {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestRandBool(t *testing.T) {
	r := NewRand(3)
	if r.Bool(0) {
		t.Error("Bool(0) returned true")
	}
	if !r.Bool(1) {
		t.Error("Bool(1) returned false")
	}
	hits := 0
	const trials = 100000
	for i := 0; i < trials; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / trials
	if math.Abs(p-0.3) > 0.01 {
		t.Errorf("Bool(0.3) hit rate %.4f", p)
	}
}

func TestRandNormFloat64Moments(t *testing.T) {
	r := NewRand(11)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %.4f", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %.4f", variance)
	}
}

func TestRandExpFloat64Mean(t *testing.T) {
	r := NewRand(12)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64()
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Errorf("exponential mean = %.4f", mean)
	}
}

func TestRandPerm(t *testing.T) {
	r := NewRand(5)
	for n := 0; n < 20; n++ {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make(map[int]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func BenchmarkEngineScheduleFire(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(Time(i%64), "bench", func(Time) {})
		if len(e.queue) > 1024 {
			e.Run()
		}
	}
	e.Run()
}

// BenchmarkEngineLane is the energy-tick pattern: twelve callbacks on
// one lane, each pushing itself again as it fires. One op is one pop
// and one push.
func BenchmarkEngineLane(b *testing.B) {
	e := NewEngine()
	l := e.Lane(50)
	var tick func(Time)
	tick = func(Time) { l.Push("bench", tick) }
	for i := 0; i < 12; i++ {
		l.Push("bench", tick)
	}
	e.Step() // grows nothing further: the ring already holds twelve
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkEngineCursor is the beacon pattern: twenty edges pushed to
// each of twelve cursors, with a little disorder within each cursor,
// then fired. One op is one push and one fire.
func BenchmarkEngineCursor(b *testing.B) {
	e := NewEngine()
	cursors := make([]*Cursor, 12)
	for i := range cursors {
		cursors[i] = e.NewCursor("bench")
	}
	fn := func(Time) {}
	load := func(k int) {
		cursors[k/20].Push(e.Now()+Time(k%20*100+k*37%150), fn)
		if k == 239 {
			e.Run()
		}
	}
	for k := 0; k < 240; k++ { // size every cursor's buffer
		load(k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		load(i % 240)
	}
	e.Run()
}

func BenchmarkRandUint64(b *testing.B) {
	r := NewRand(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	_ = sink
}
