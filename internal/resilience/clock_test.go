package resilience

import (
	"context"
	"sync"
	"testing"
	"time"
)

// FakeClock is a deterministic Clock for tests: Sleep returns
// immediately, advancing the fake time by the requested duration and
// recording it, so a retry schedule can be asserted without waiting
// for it. Safe for concurrent use.
type FakeClock struct {
	mu    sync.Mutex
	now   time.Time
	slept []time.Duration
}

// NewFakeClock starts a fake clock at the given instant.
func NewFakeClock(start time.Time) *FakeClock { return &FakeClock{now: start} }

// Now implements Clock.
func (f *FakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

// Sleep implements Clock: the requested duration is recorded and the
// fake time advances, but the call never blocks (beyond an immediate
// ctx check).
func (f *FakeClock) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d <= 0 {
		return nil
	}
	f.mu.Lock()
	f.now = f.now.Add(d)
	f.slept = append(f.slept, d)
	f.mu.Unlock()
	return nil
}

// Slept returns the recorded sleep durations in call order.
func (f *FakeClock) Slept() []time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]time.Duration(nil), f.slept...)
}

// TestFakeClockSleep: the fake clock advances instantly, records the
// request, and still honors context cancellation.
func TestFakeClockSleep(t *testing.T) {
	clock := NewFakeClock(time.Unix(0, 0))
	if err := clock.Sleep(context.Background(), 3*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := clock.Now(); !got.Equal(time.Unix(3, 0)) {
		t.Errorf("Now = %v after 3s sleep", got)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := clock.Sleep(ctx, time.Second); err == nil {
		t.Error("sleep on cancelled ctx returned nil")
	}
	slept := clock.Slept()
	if len(slept) != 1 || slept[0] != 3*time.Second {
		t.Errorf("Slept() = %v, want [3s]", slept)
	}
}

// TestRealClockSleepCancel: the real clock's sleep is ctx-aware.
func TestRealClockSleepCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	//lint:allow determinism-taint measures that a cancelled sleep returns promptly
	start := time.Now()
	if err := Real().Sleep(ctx, 10*time.Second); err == nil {
		t.Fatal("sleep ignored cancelled context")
	}
	//lint:allow determinism-taint measures that a cancelled sleep returns promptly
	if time.Since(start) > time.Second {
		t.Error("cancelled sleep blocked")
	}
	if err := Real().Sleep(context.Background(), 0); err != nil {
		t.Errorf("zero sleep: %v", err)
	}
}
