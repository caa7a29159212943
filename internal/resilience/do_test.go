package resilience

import (
	"context"
	"errors"
	"testing"
	"time"
)

var errBoom = errors.New("boom")

// TestRunnerRetriesThenSucceeds: the Do loop sleeps the policy
// schedule through the clock and stops at first success.
func TestRunnerRetriesThenSucceeds(t *testing.T) {
	clock := NewFakeClock(time.Unix(0, 0))
	calls := 0
	var retried []int
	r := Runner{
		Policy:  Policy{MaxAttempts: 5, BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second},
		Clock:   clock,
		OnRetry: func(attempt int, delay time.Duration, err error) { retried = append(retried, attempt) },
	}
	err := r.Do(context.Background(), func(context.Context) error {
		calls++
		if calls < 3 {
			return MarkRetryable(errBoom)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if calls != 3 {
		t.Errorf("calls = %d, want 3", calls)
	}
	slept := clock.Slept()
	want := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond}
	if len(slept) != len(want) {
		t.Fatalf("slept %v, want %v", slept, want)
	}
	for i := range want {
		if slept[i] != want[i] {
			t.Errorf("sleep[%d] = %v, want %v", i, slept[i], want[i])
		}
	}
	if len(retried) != 2 || retried[0] != 1 || retried[1] != 2 {
		t.Errorf("OnRetry attempts = %v", retried)
	}
}

// TestRunnerFatalStopsImmediately: fatal classification short-circuits.
func TestRunnerFatalStopsImmediately(t *testing.T) {
	clock := NewFakeClock(time.Unix(0, 0))
	calls := 0
	err := Runner{Policy: Policy{MaxAttempts: 5}, Clock: clock}.Do(context.Background(), func(context.Context) error {
		calls++
		return errBoom // unknown ⇒ fatal
	})
	if !errors.Is(err, errBoom) || calls != 1 || len(clock.Slept()) != 0 {
		t.Errorf("fatal error retried: calls=%d slept=%v err=%v", calls, clock.Slept(), err)
	}
}

// TestRunnerHonorsRetryAfter: a busy error's hint extends the wait
// beyond the policy backoff.
func TestRunnerHonorsRetryAfter(t *testing.T) {
	clock := NewFakeClock(time.Unix(0, 0))
	calls := 0
	err := Runner{
		Policy: Policy{MaxAttempts: 3, BaseDelay: 10 * time.Millisecond},
		Clock:  clock,
	}.Do(context.Background(), func(context.Context) error {
		calls++
		if calls == 1 {
			return MarkBusy(errBoom, 4*time.Second)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	slept := clock.Slept()
	if len(slept) != 1 || slept[0] != 4*time.Second {
		t.Errorf("slept %v, want [4s]", slept)
	}
}

// TestRunnerRespectsBudget pins the affordability boundary: a wait
// below or equal to the remaining deadline budget is slept, a wait one
// nanosecond over it is not (the last error returns with zero sleeps),
// and with no deadline every wait is slept. The fake clock starts at
// real now so each context deadline (which the runtime checks against
// wall time) stays in the future; durations are in seconds so fake-time
// arithmetic dwarfs real elapsed time.
func TestRunnerRespectsBudget(t *testing.T) {
	const wait = 100 * time.Second
	cases := []struct {
		name   string
		budget time.Duration // 0 means no deadline
		calls  int
		slept  []time.Duration
	}{
		{"wait below budget sleeps", wait + time.Second, 2, []time.Duration{wait}},
		{"wait equal to budget sleeps", wait, 2, []time.Duration{wait}},
		{"wait above budget returns", wait - time.Nanosecond, 1, nil},
		{"no deadline always sleeps", 0, 2, []time.Duration{wait}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			//lint:allow determinism-taint fake clock must start near real time for context deadlines
			clock := NewFakeClock(time.Now())
			ctx := context.Background()
			if tc.budget > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithDeadline(ctx, clock.Now().Add(tc.budget))
				defer cancel()
			}
			calls := 0
			err := Runner{
				Policy: Policy{MaxAttempts: 2, BaseDelay: wait, MaxDelay: time.Hour},
				Clock:  clock,
			}.Do(ctx, func(context.Context) error {
				calls++
				return MarkRetryable(errBoom)
			})
			if !errors.Is(err, errBoom) || Classify(err) != ClassRetryable {
				t.Fatalf("want the retryable error back, got %v", err)
			}
			if calls != tc.calls {
				t.Errorf("calls = %d, want %d", calls, tc.calls)
			}
			slept := clock.Slept()
			if len(slept) != len(tc.slept) || (len(slept) > 0 && slept[0] != tc.slept[0]) {
				t.Errorf("slept %v, want %v", slept, tc.slept)
			}
		})
	}
}
