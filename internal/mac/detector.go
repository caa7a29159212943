package mac

// windowSlots is the length of both of the paper's 32-slot windows: the
// clean-slot run that declares convergence (Sec. 6.4) and the Fig. 16
// sliding window.
const windowSlots = 32

// ConvergenceDetector implements the paper's first-convergence-time
// metric (Sec. 6.4): the number of slots until the reader has seen 32
// consecutive non-collision slots after a RESET. The zero value is
// ready to use.
type ConvergenceDetector struct {
	slots     int
	cleanRun  int
	converged bool
	at        int
}

// NewConvergenceDetector returns a detector with the paper's window.
func NewConvergenceDetector() *ConvergenceDetector {
	return new(ConvergenceDetector)
}

// Observe ingests one slot outcome and returns true the first time the
// clean-run criterion is met.
func (c *ConvergenceDetector) Observe(collision bool) bool {
	c.slots++
	if collision {
		c.cleanRun = 0
		return false
	}
	c.cleanRun++
	if !c.converged && c.cleanRun >= windowSlots {
		c.converged = true
		c.at = c.slots
		return true
	}
	return false
}

// Reset rewinds the detector to its freshly constructed state.
func (c *ConvergenceDetector) Reset() { *c = ConvergenceDetector{} }

// Converged reports whether the criterion was met.
func (c *ConvergenceDetector) Converged() bool { return c.converged }

// ConvergenceSlot returns the slot count at which convergence was
// declared (0 if not yet).
func (c *ConvergenceDetector) ConvergenceSlot() int { return c.at }

// WindowStats tracks the Fig. 16 long-running metrics over the paper's
// 32-slot sliding window: the non-empty ratio (slots with at least one
// transmission, collisions included) and the collision ratio (slots
// with more than one transmitter). The zero value is ready to use.
type WindowStats struct {
	// The ring: entry i holds the latest observed slot whose index
	// (counted in observations) is i modulo windowSlots.
	nonEmpty [windowSlots]bool
	collide  [windowSlots]bool

	totalSlots     int
	totalNonEmpty  int
	totalCollision int
}

// NewWindowStats returns stats with the paper's 32-slot window.
func NewWindowStats() *WindowStats {
	return new(WindowStats)
}

// Observe ingests one slot.
func (w *WindowStats) Observe(nonEmpty, collision bool) {
	i := w.totalSlots % windowSlots
	w.nonEmpty[i] = nonEmpty
	w.collide[i] = collision
	w.totalSlots++
	if nonEmpty {
		w.totalNonEmpty++
	}
	if collision {
		w.totalCollision++
	}
}

// Reset rewinds the stats to empty.
func (w *WindowStats) Reset() { *w = WindowStats{} }

// NonEmptyRatio returns the windowed non-empty ratio.
func (w *WindowStats) NonEmptyRatio() float64 { return w.ratio(&w.nonEmpty) }

// CollisionRatio returns the windowed collision ratio.
func (w *WindowStats) CollisionRatio() float64 { return w.ratio(&w.collide) }

// ratio returns the share of set entries among the filled part of the
// ring; entries not yet written are false.
func (w *WindowStats) ratio(ring *[windowSlots]bool) float64 {
	filled := min(w.totalSlots, windowSlots)
	if filled == 0 {
		return 0
	}
	n := 0
	for _, set := range ring {
		if set {
			n++
		}
	}
	return float64(n) / float64(filled)
}

// AverageNonEmptyRatio returns the whole-run average (the 81.2% of
// Sec. 6.4).
func (w *WindowStats) AverageNonEmptyRatio() float64 {
	if w.totalSlots == 0 {
		return 0
	}
	return float64(w.totalNonEmpty) / float64(w.totalSlots)
}

// AverageCollisionRatio returns the whole-run average (the 0.056 of
// Sec. 6.4).
func (w *WindowStats) AverageCollisionRatio() float64 {
	if w.totalSlots == 0 {
		return 0
	}
	return float64(w.totalCollision) / float64(w.totalSlots)
}

// Slots returns the number of observed slots.
func (w *WindowStats) Slots() int { return w.totalSlots }
