package resilience

import "time"

// Policy is a capped exponential backoff schedule: each retry waits
// twice as long as the one before, up to MaxDelay. The zero value
// resolves to the documented defaults; Backoff is a pure function of
// (policy, attempt), so every run retries on the same schedule
// regardless of wall clock or scheduling.
type Policy struct {
	// MaxAttempts is the total number of tries including the first;
	// <= 0 means 4. 1 disables retries.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; <= 0 means
	// 50ms.
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth; <= 0 means 5s.
	MaxDelay time.Duration
}

// Defaults for the zero Policy.
const (
	defaultMaxAttempts = 4
	defaultBaseDelay   = 50 * time.Millisecond
	defaultMaxDelay    = 5 * time.Second
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
	return p
}

// Backoff returns the delay to wait after the given failed attempt
// (attempt 1 is the first try; the returned delay precedes attempt
// attempt+1): BaseDelay·2^(attempt-1), capped at MaxDelay.
func (p Policy) Backoff(attempt int) time.Duration {
	p = p.withDefaults()
	d := p.BaseDelay
	for i := 1; i < attempt && d < p.MaxDelay; i++ {
		d *= 2
	}
	return min(d, p.MaxDelay)
}
