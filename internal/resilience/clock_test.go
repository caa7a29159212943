package resilience

import (
	"context"
	"testing"
	"time"
)

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
