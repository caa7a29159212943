package sim

// Pending returns the number of events waiting in the queue.
func (e *Engine) Pending() int { return len(e.queue) }
