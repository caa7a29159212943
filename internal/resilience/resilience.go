// Package resilience is a small, deterministic, stdlib-only
// reliability kit for the service layer: an error classifier
// (retryable / fatal / busy), a capped-exponential retry policy, and a
// retry runner that composes them and keeps every wait inside the
// caller's context deadline.
//
// Everything time-dependent goes through the Clock seam, and the
// schedule is a pure function of (policy, attempt), so a chaos run
// with injected transport failures retries on the same schedule every
// time.
package resilience

import (
	"errors"
	"time"
)

// Class partitions errors by how the caller should respond.
type Class int

const (
	// ClassFatal errors must not be retried: the operation is invalid
	// or the outcome would not change. Unknown errors default to fatal
	// so a misclassification can never cause a retry storm.
	ClassFatal Class = iota
	// ClassRetryable errors are transient: retry after backoff.
	ClassRetryable
	// ClassBusy errors are explicit backpressure (HTTP 429): retry,
	// but honor the server-suggested wait.
	ClassBusy
)

// String names the class for logs and metrics.
func (c Class) String() string {
	switch c {
	case ClassFatal:
		return "fatal"
	case ClassRetryable:
		return "retryable"
	case ClassBusy:
		return "busy"
	}
	return "unknown"
}

// Classifier is implemented by errors that carry their own class.
type Classifier interface {
	ResilienceClass() Class
}

// Waiter is implemented by busy errors that carry a suggested wait.
type Waiter interface {
	RetryAfter() time.Duration
}

// classified wraps an error with an explicit class (and, for busy
// errors, a suggested wait).
type classified struct {
	err   error
	class Class
	after time.Duration
}

func (c *classified) Error() string             { return c.err.Error() }
func (c *classified) Unwrap() error             { return c.err }
func (c *classified) ResilienceClass() Class    { return c.class }
func (c *classified) RetryAfter() time.Duration { return c.after }

// MarkRetryable wraps err as explicitly retryable. A nil err stays
// nil.
func MarkRetryable(err error) error {
	if err == nil {
		return nil
	}
	return &classified{err: err, class: ClassRetryable}
}

// MarkFatal wraps err as explicitly fatal (never retried), overriding
// any class carried deeper in the chain. A nil err stays nil.
func MarkFatal(err error) error {
	if err == nil {
		return nil
	}
	return &classified{err: err, class: ClassFatal}
}

// MarkBusy wraps err as backpressure with a suggested wait. A nil err
// stays nil.
func MarkBusy(err error, retryAfter time.Duration) error {
	if err == nil {
		return nil
	}
	return &classified{err: err, class: ClassBusy, after: retryAfter}
}

// Unmark strips the outermost classification wrapper, returning the
// error as it was before Mark*. Callers that classify internally (a
// retrying client) use it so their public errors keep their original
// types and messages. Non-wrapped errors pass through unchanged.
func Unmark(err error) error {
	if c, ok := err.(*classified); ok {
		return c.err
	}
	return err
}

// Classify maps an error to its class. Explicit marks win (outermost
// first); everything else — context cancellation and expiry included,
// since the caller's budget is spent — is fatal.
func Classify(err error) Class {
	var c Classifier
	if errors.As(err, &c) {
		return c.ResilienceClass()
	}
	return ClassFatal
}

// RetryAfterHint extracts the suggested wait of a busy error; ok is
// false when the chain carries none.
func RetryAfterHint(err error) (time.Duration, bool) {
	var w Waiter
	if errors.As(err, &w) && w.RetryAfter() > 0 {
		return w.RetryAfter(), true
	}
	return 0, false
}
