package obs

// Recent keeps the last max values of a stream, for the bounded logs a
// long run reads back (the reader's payload and ping-pong logs, the
// network's beacon decodes, fleetd's job event streams). Trimming is
// amortized O(1): dropped values stay in front of the window until
// there are max of them, then the window is copied down once, so each
// value is copied at most once and a full log appends without
// allocating.
type Recent[T any] struct {
	max  int
	head int // buf[head:] is the window
	buf  []T
}

// NewRecent returns a log that keeps the last n values (min 1). The
// zero Recent is an empty log that must not be added to.
func NewRecent[T any](n int) Recent[T] {
	return Recent[T]{max: max(n, 1)}
}

// Add appends v, dropping the oldest value once the log is full.
func (r *Recent[T]) Add(v T) {
	r.buf = append(r.buf, v)
	if len(r.buf)-r.head > r.max {
		r.head++
	}
	if r.head == r.max {
		n := copy(r.buf, r.buf[r.head:])
		clear(r.buf[n:])
		r.buf, r.head = r.buf[:n], 0
	}
}

// All returns the window, oldest first. It is borrowed: the next Add
// may overwrite it.
func (r *Recent[T]) All() []T { return r.buf[r.head:] }
