package api

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/resilience"
)

// TestStreamHostileInput serves malformed progress streams to
// Client.Stream: each must end in an error promptly, and fn must see
// only the well-formed lines before the bad one.
func TestStreamHostileInput(t *testing.T) {
	const (
		status = `{"type":"status","status":{"id":"job-1","state":"running","done":0,"total":2}}` + "\n"
		event  = `{"type":"event","seq":1,"event":{"kind":"job_start","job":0}}` + "\n"
		done   = `{"type":"done","seq":1,"state":"done","fingerprint":"sha256:00"}` + "\n"
	)
	cases := []struct {
		name string
		body string
		good int // lines fn may see, all before the bad one
	}{
		{"non-JSON line", status + event + "this is not json\n" + event + done, 2},
		{"line over the 1 MiB cap", status + `{"type":"event","seq":1,"error":"` + strings.Repeat("x", 1<<20) + `"}` + "\n" + done, 1},
		{"no done line", status + event, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/x-ndjson")
				_, _ = w.Write([]byte(tc.body))
			}))
			defer hs.Close()

			var seen []StreamLine
			type result struct {
				last StreamLine
				err  error
			}
			out := make(chan result, 1)
			go func() {
				last, err := NewClient(hs.URL).Stream(context.Background(), "job-1", func(line StreamLine) error {
					seen = append(seen, line)
					return nil
				})
				out <- result{last, err}
			}()
			select {
			case res := <-out:
				if res.err == nil {
					t.Fatalf("Stream returned no error (terminal %+v)", res.last)
				}
				if len(seen) != tc.good {
					t.Fatalf("fn saw %d lines, want the %d before the bad one: %+v", len(seen), tc.good, seen)
				}
				if seen[0].Type != StreamStatus {
					t.Fatalf("first line delivered is %+v, want the status line", seen[0])
				}
			case <-time.After(10 * time.Second):
				t.Fatal("Stream hung on hostile input")
			}
		})
	}
}

// countingServer answers every request with respond and counts the
// requests it saw.
func countingServer(t *testing.T, respond func(w http.ResponseWriter)) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var n atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n.Add(1)
		respond(w)
	}))
	t.Cleanup(hs.Close)
	return hs, &n
}

// dropConn closes the connection without a response: a transport error.
func dropConn(w http.ResponseWriter) {
	if conn, _, err := w.(http.Hijacker).Hijack(); err == nil {
		conn.Close()
	}
}

// statusWith answers with code and the standard error body; a 429
// carries Retry-After: 2.
func statusWith(code int, msg string) func(http.ResponseWriter) {
	return func(w http.ResponseWriter) {
		if code == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "2")
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		_, _ = w.Write([]byte(`{"error":"` + msg + `"}`))
	}
}

// TestClientCallPath pins what callers see from one call: a bare
// client sends exactly one request and returns the original error
// values (ErrBusy by type assertion, *HTTPError, an unprefixed
// transport error); a retrying client repeats retryable failures up to
// its attempt budget and stops at once on a client error.
func TestClientCallPath(t *testing.T) {
	ctx := context.Background()
	spec := []byte(`{}`)

	t.Run("bare transport error", func(t *testing.T) {
		hs, n := countingServer(t, dropConn)
		c := NewClient(hs.URL)
		_, err := c.Submit(ctx, spec)
		if err == nil {
			t.Fatal("Submit succeeded on a dropped connection")
		}
		var cl resilience.Classifier
		if errors.As(err, &cl) {
			t.Errorf("transport error still carries its retry class %v: %v", cl.ResilienceClass(), err)
		}
		if got := n.Load(); got != 1 {
			t.Errorf("requests = %d, want 1", got)
		}
		if c.Retries() != 0 {
			t.Errorf("Retries() = %d, want 0", c.Retries())
		}
	})

	t.Run("bare 503", func(t *testing.T) {
		hs, n := countingServer(t, statusWith(http.StatusServiceUnavailable, "draining"))
		c := NewClient(hs.URL)
		_, err := c.Submit(ctx, spec)
		he, ok := err.(*HTTPError)
		if !ok || he.StatusCode != http.StatusServiceUnavailable || he.Message != "draining" {
			t.Fatalf("err = %#v, want *HTTPError{StatusCode: 503, Message: draining}", err)
		}
		if got := n.Load(); got != 1 {
			t.Errorf("requests = %d, want 1", got)
		}
		if c.Retries() != 0 {
			t.Errorf("Retries() = %d, want 0", c.Retries())
		}
	})

	t.Run("bare 429", func(t *testing.T) {
		hs, n := countingServer(t, statusWith(http.StatusTooManyRequests, "job queue full"))
		c := NewClient(hs.URL)
		_, err := c.Submit(ctx, spec)
		busy, ok := err.(ErrBusy)
		if !ok {
			t.Fatalf("err = %#v, want ErrBusy", err)
		}
		if busy.RetryAfter != 2*time.Second || busy.Message != "job queue full" {
			t.Errorf("busy = %+v, want RetryAfter 2s and the server message", busy)
		}
		if got := n.Load(); got != 1 {
			t.Errorf("requests = %d, want 1", got)
		}
		if c.Retries() != 0 {
			t.Errorf("Retries() = %d, want 0", c.Retries())
		}
	})

	retry := WithRetry(resilience.Policy{MaxAttempts: 3, BaseDelay: time.Millisecond})

	t.Run("retrying 503", func(t *testing.T) {
		hs, n := countingServer(t, statusWith(http.StatusServiceUnavailable, "draining"))
		c := NewClient(hs.URL, retry)
		_, err := c.Submit(ctx, spec)
		var he *HTTPError
		if !errors.As(err, &he) || he.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("err = %v, want the 503", err)
		}
		if got := n.Load(); got != 3 {
			t.Errorf("requests = %d, want 3", got)
		}
		if c.Retries() != 2 {
			t.Errorf("Retries() = %d, want 2", c.Retries())
		}
	})

	t.Run("retrying 400", func(t *testing.T) {
		hs, n := countingServer(t, statusWith(http.StatusBadRequest, "bad spec"))
		c := NewClient(hs.URL, retry)
		_, err := c.Submit(ctx, spec)
		var he *HTTPError
		if !errors.As(err, &he) || he.StatusCode != http.StatusBadRequest {
			t.Fatalf("err = %v, want the 400", err)
		}
		if got := n.Load(); got != 1 {
			t.Errorf("requests = %d, want 1", got)
		}
	})
}
