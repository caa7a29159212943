// Package sim provides a deterministic discrete-event simulation engine
// used by every ARACHNET subsystem: a virtual clock with microsecond
// resolution, an allocation-free event queue with stable FIFO ordering
// for simultaneous events (scheduled events are named by Handle values
// that stay safe to cancel after the engine recycles the event), and a
// seedable random source so every experiment is reproducible from its
// seed.
package sim

import (
	"fmt"
	"time"
)

// Time is a virtual simulation timestamp measured in microseconds since
// the start of the simulation. A dedicated type (rather than
// time.Duration) keeps arithmetic explicit and avoids accidental mixing
// with wall-clock values.
type Time int64

// Common time unit constants, expressed in simulation ticks.
const (
	Microsecond Time = 1
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
	Minute      Time = 60 * Second
	Hour        Time = 60 * Minute
)

// Never is a sentinel timestamp that sorts after every reachable event.
const Never Time = 1<<63 - 1

// Duration converts the timestamp to a time.Duration for display.
func (t Time) Duration() time.Duration { return time.Duration(t) * time.Microsecond }

// Seconds returns the timestamp in (fractional) seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Milliseconds returns the timestamp in (fractional) milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// String formats the timestamp using the most natural unit.
func (t Time) String() string {
	switch {
	case t == Never:
		return "never"
	case t >= Second:
		return fmt.Sprintf("%.6fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", t.Milliseconds())
	default:
		return fmt.Sprintf("%dµs", int64(t))
	}
}

// FromSeconds converts fractional seconds to a simulation timestamp,
// rounding to the nearest microsecond.
func FromSeconds(s float64) Time {
	if s < 0 {
		return 0
	}
	return Time(s*float64(Second) + 0.5)
}
