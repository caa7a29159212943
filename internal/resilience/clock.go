package resilience

import (
	"context"
	"time"
)

// Clock is the seam every delay in the service layer goes through.
// Production code uses Real(); tests substitute a fake clock so
// retry/backoff schedules run instantly and deterministically. The
// arachnet-lint sleep-discipline check enforces that internal/fleetd
// and its api package never call time.Sleep (or time.After) directly —
// delays must be routed here, where they are injectable.
type Clock interface {
	// Now reports the current time.
	Now() time.Time
	// Sleep blocks for d or until ctx is done, returning ctx.Err() in
	// the latter case (nil otherwise). Non-positive d returns
	// immediately.
	Sleep(ctx context.Context, d time.Duration) error
}

// Real returns the wall-clock Clock.
func Real() Clock { return realClock{} }

type realClock struct{}

// Now implements Clock.
//
//lint:allow determinism-taint realClock is the production seam; tests use FakeClock
func (realClock) Now() time.Time { return time.Now() }

// Sleep implements Clock with a context-aware timer.
func (realClock) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
