package resilience

import (
	"context"
	"time"
)

// Runner composes the kit into a retry loop: the policy fixes the
// schedule, the clock makes waits injectable, and OnRetry feeds
// metrics.
type Runner struct {
	// Policy is the backoff schedule (zero value = defaults).
	Policy Policy
	// Clock provides Now/Sleep; nil means Real().
	Clock Clock
	// OnRetry is invoked before each backoff wait with the attempt
	// number (1-based), the chosen delay, and the error that caused
	// the retry; nil means no hook.
	OnRetry func(attempt int, delay time.Duration, err error)
}

// Do runs op with retries. Retryable errors back off per the policy;
// busy errors wait at least their Retry-After hint; fatal errors (and
// exhausted budgets) return immediately. A wait that cannot fit in
// ctx's remaining deadline budget is not slept: the last error returns
// right away, so callers never burn their budget inside a doomed wait.
func (r Runner) Do(ctx context.Context, op func(ctx context.Context) error) error {
	clock := r.Clock
	if clock == nil {
		clock = Real()
	}
	p := r.Policy.withDefaults()
	var lastErr error
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return lastErr
			}
			return err
		}
		err := op(ctx)
		if err == nil {
			return nil
		}
		lastErr = err
		if Classify(err) == ClassFatal || attempt >= p.MaxAttempts {
			return err
		}
		delay := p.Backoff(attempt)
		if hint, ok := RetryAfterHint(err); ok && hint > delay {
			delay = hint
		}
		if dl, ok := ctx.Deadline(); ok && delay > max(dl.Sub(clock.Now()), 0) {
			return err
		}
		if r.OnRetry != nil {
			r.OnRetry(attempt, delay, err)
		}
		if serr := clock.Sleep(ctx, delay); serr != nil {
			return err
		}
	}
}
