package resilience

import (
	"testing"
	"testing/quick"
	"time"
)

// Schedule materializes the full retry schedule for a seed: the delays
// after attempts 1..MaxAttempts-1.
func (p Policy) Schedule(seed uint64) []time.Duration {
	p = p.withDefaults()
	if p.MaxAttempts <= 1 {
		return nil
	}
	out := make([]time.Duration, p.MaxAttempts-1)
	for i := range out {
		out[i] = p.Backoff(seed, i+1)
	}
	return out
}

// TestBackoffPureFunction pins the core property: the schedule is a
// pure function of (policy, seed, attempt). Two evaluations with the
// same inputs must agree bit-for-bit, and evaluation order must not
// matter (no hidden RNG state).
func TestBackoffPureFunction(t *testing.T) {
	prop := func(seed uint64, attempt uint8, basems uint16, jitterQ uint8) bool {
		p := Policy{
			MaxAttempts: 8,
			BaseDelay:   time.Duration(basems%500+1) * time.Millisecond,
			MaxDelay:    2 * time.Second,
			Multiplier:  2,
			Jitter:      float64(jitterQ%101) / 100,
		}
		a := int(attempt%10) + 1
		first := p.Backoff(seed, a)
		// Interleave evaluations at other attempts, then re-ask: the
		// answer must not have moved.
		for i := 1; i <= 5; i++ {
			p.Backoff(seed+uint64(i), i)
		}
		return p.Backoff(seed, a) == first
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestBackoffBounds checks every delay respects the cap and the
// jitter floor: delay ∈ [(1−Jitter)·raw, raw] and raw ≤ MaxDelay.
func TestBackoffBounds(t *testing.T) {
	prop := func(seed uint64, attempt uint8) bool {
		p := Policy{MaxAttempts: 10, BaseDelay: 10 * time.Millisecond, MaxDelay: 800 * time.Millisecond, Multiplier: 3, Jitter: 0.5}
		a := int(attempt%12) + 1
		d := p.Backoff(seed, a)
		raw := float64(10 * time.Millisecond)
		for i := 1; i < a; i++ {
			raw *= 3
			if raw > float64(800*time.Millisecond) {
				break
			}
		}
		if raw > float64(800*time.Millisecond) {
			raw = float64(800 * time.Millisecond)
		}
		return float64(d) >= 0.5*raw-1 && float64(d) <= raw+1
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestBackoffNoJitterExact pins the exact unjittered schedule.
func TestBackoffNoJitterExact(t *testing.T) {
	p := Policy{MaxAttempts: 6, BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second, Multiplier: 2, Jitter: 0}
	want := []time.Duration{
		100 * time.Millisecond, // after attempt 1
		200 * time.Millisecond,
		400 * time.Millisecond,
		800 * time.Millisecond,
		1000 * time.Millisecond, // capped
	}
	got := p.Schedule(12345)
	if len(got) != len(want) {
		t.Fatalf("schedule length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("delay[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// Jitter 0 makes the schedule seed-independent.
	for i, d := range p.Schedule(999) {
		if d != want[i] {
			t.Errorf("unjittered schedule depends on seed at %d: %v != %v", i, d, want[i])
		}
	}
}

// TestBackoffSeedSensitivity: with jitter on, distinct seeds produce
// distinct schedules (overwhelmingly), while one seed replays exactly.
func TestBackoffSeedSensitivity(t *testing.T) {
	p := Policy{MaxAttempts: 6, BaseDelay: 100 * time.Millisecond, Jitter: 0.9}
	a := p.Schedule(1)
	b := p.Schedule(2)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
	}
	if same {
		t.Error("seeds 1 and 2 produced identical jittered schedules")
	}
	c := p.Schedule(1)
	for i := range a {
		if a[i] != c[i] {
			t.Errorf("seed 1 did not replay: delay[%d] %v != %v", i, c[i], a[i])
		}
	}
}

// TestPolicyDefaults pins the zero-value resolution.
func TestPolicyDefaults(t *testing.T) {
	p := Policy{}.withDefaults()
	if p.MaxAttempts != 4 || p.BaseDelay != 50*time.Millisecond || p.MaxDelay != 5*time.Second || p.Multiplier != 2 {
		t.Errorf("unexpected defaults: %+v", p)
	}
	if (Policy{MaxAttempts: 1}).Schedule(0) != nil {
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
