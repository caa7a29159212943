package resilience

import (
	"testing"
	"testing/quick"
	"time"
)

// Schedule materializes the full retry schedule: the delays after
// attempts 1..MaxAttempts-1.
func (p Policy) Schedule() []time.Duration {
	p = p.withDefaults()
	if p.MaxAttempts <= 1 {
		return nil
	}
	out := make([]time.Duration, p.MaxAttempts-1)
	for i := range out {
		out[i] = p.Backoff(i + 1)
	}
	return out
}

// TestBackoffBounds checks every delay is the doubled base delay,
// capped at MaxDelay.
func TestBackoffBounds(t *testing.T) {
	prop := func(attempt uint8) bool {
		p := Policy{MaxAttempts: 10, BaseDelay: 10 * time.Millisecond, MaxDelay: 800 * time.Millisecond}
		a := int(attempt%12) + 1
		d := p.Backoff(a)
		raw := 10 * time.Millisecond
		for i := 1; i < a; i++ {
			raw *= 2
		}
		return d == min(raw, 800*time.Millisecond)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestBackoffNoJitterExact pins the exact schedule.
func TestBackoffNoJitterExact(t *testing.T) {
	p := Policy{MaxAttempts: 6, BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second}
	want := []time.Duration{
		100 * time.Millisecond, // after attempt 1
		200 * time.Millisecond,
		400 * time.Millisecond,
		800 * time.Millisecond,
		1000 * time.Millisecond, // capped
	}
	got := p.Schedule()
	if len(got) != len(want) {
		t.Fatalf("schedule length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("delay[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestPolicyDefaults pins the zero-value resolution.
func TestPolicyDefaults(t *testing.T) {
	p := Policy{}.withDefaults()
	if p.MaxAttempts != 4 || p.BaseDelay != 50*time.Millisecond || p.MaxDelay != 5*time.Second {
		t.Errorf("unexpected defaults: %+v", p)
	}
	if (Policy{MaxAttempts: 1}).Schedule() != nil {
		t.Error("single-attempt policy should have an empty schedule")
	}
}

// TestClassifyMessageRoundTrip: a mark classifies through the error
// chain, an outer mark overrides an inner one, and marking leaves the
// message unchanged.
func TestClassifyMessageRoundTrip(t *testing.T) {
	err := MarkRetryable(errTest("disk hiccup"))
	if err.Error() != "disk hiccup" {
		t.Errorf("marked error renders %q, want the original message", err.Error())
	}
	if Classify(err) != ClassRetryable {
		t.Error("chain classification broken")
	}
	if Classify(MarkFatal(err)) != ClassFatal {
		t.Error("outer fatal mark did not win")
	}
	busy := MarkBusy(errTest("full"), 3*time.Second)
	if Classify(busy) != ClassBusy {
		t.Error("busy mark lost")
	}
	if after, ok := RetryAfterHint(busy); !ok || after != 3*time.Second {
		t.Errorf("RetryAfterHint = %v, %v", after, ok)
	}
}

type errTest string

func (e errTest) Error() string { return string(e) }
