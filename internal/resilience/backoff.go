package resilience

import "time"

// Policy is a capped exponential backoff schedule with seeded jitter.
// The zero value resolves to the documented defaults; Backoff is a
// pure function of (policy, seed, attempt) — the property the schedule
// tests pin — so two runs with the same seed retry on identical
// schedules regardless of wall clock or scheduling.
type Policy struct {
	// MaxAttempts is the total number of tries including the first;
	// <= 0 means 4. 1 disables retries.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; <= 0 means
	// 50ms.
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth; <= 0 means 5s.
	MaxDelay time.Duration
	// Multiplier is the per-retry growth factor; values <= 1 mean 2.
	Multiplier float64
	// Jitter is the fraction of each delay that is randomized (0 keeps
	// the schedule exact, 1 spreads each delay over [0, delay)). Values
	// outside [0, 1] are clamped. The jitter stream derives from the
	// seed passed to Backoff, never from a global RNG.
	Jitter float64
}

// Defaults for the zero Policy.
const (
	defaultMaxAttempts = 4
	defaultBaseDelay   = 50 * time.Millisecond
	defaultMaxDelay    = 5 * time.Second
	defaultMultiplier  = 2.0
)

// withDefaults resolves the documented zero-value defaults.
func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = defaultMaxAttempts
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = defaultBaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = defaultMaxDelay
	}
	if p.Multiplier <= 1 {
		p.Multiplier = defaultMultiplier
	}
	if p.Jitter < 0 {
		p.Jitter = 0
	}
	if p.Jitter > 1 {
		p.Jitter = 1
	}
	return p
}

// Backoff returns the delay to wait after the given failed attempt
// (attempt 1 is the first try; the returned delay precedes attempt
// attempt+1). It is a pure function of (p, seed, attempt): the raw
// delay is BaseDelay·Multiplier^(attempt-1) capped at MaxDelay, and
// the jittered delay keeps the deterministic (1−Jitter) share and
// draws the rest from a SplitMix64 stream over (seed, attempt).
func (p Policy) Backoff(seed uint64, attempt int) time.Duration {
	p = p.withDefaults()
	if attempt < 1 {
		attempt = 1
	}
	d := float64(p.BaseDelay)
	cap := float64(p.MaxDelay)
	for i := 1; i < attempt; i++ {
		d *= p.Multiplier
		if d >= cap {
			d = cap
			break
		}
	}
	if d > cap {
		d = cap
	}
	if p.Jitter > 0 {
		u := unitFloat(mix64(seed, uint64(attempt)))
		d = d*(1-p.Jitter) + d*p.Jitter*u
	}
	return time.Duration(d)
}
