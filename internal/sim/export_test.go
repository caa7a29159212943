package sim

// Pending returns the number of callbacks waiting to fire: scheduled
// events, lane entries and every cursor's pending items.
func (e *Engine) Pending() int {
	n := 0
	for _, ev := range e.queue {
		if c := ev.cursor; c != nil {
			n += len(c.items) - c.next
		} else {
			n++
		}
	}
	for _, l := range e.lanes {
		n += l.n
	}
	return n
}
