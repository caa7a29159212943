package api

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
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
		var ue *url.Error
		if !errors.As(err, &ue) {
			t.Errorf("err = %#v, want the transport's *url.Error", err)
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

	retry := WithRetry(3, time.Millisecond)

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

// scriptedServer answers the i-th request (0-based) with
// script[min(i, len(script)-1)] and records when each request arrived.
type scriptedServer struct {
	*httptest.Server
	mu       sync.Mutex
	arrivals []time.Time
}

func newScriptedServer(t *testing.T, script ...func(http.ResponseWriter)) *scriptedServer {
	t.Helper()
	s := &scriptedServer{}
	s.Server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		i := len(s.arrivals)
		//lint:allow determinism-taint the test measures the client's real retry waits
		s.arrivals = append(s.arrivals, time.Now())
		s.mu.Unlock()
		script[min(i, len(script)-1)](w)
	}))
	t.Cleanup(s.Close)
	return s
}

// gaps returns the time between consecutive requests.
func (s *scriptedServer) gaps() []time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []time.Duration
	for i := 1; i < len(s.arrivals); i++ {
		out = append(out, s.arrivals[i].Sub(s.arrivals[i-1]))
	}
	return out
}

// accepted answers a submission with 202 and a job id.
func accepted(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	_, _ = w.Write([]byte(`{"id":"job-1","state":"queued","jobs":1}`))
}

// TestClientRetriesThenSucceeds: two 503s then a 202 take three
// requests, and the waits between them double from the first delay.
func TestClientRetriesThenSucceeds(t *testing.T) {
	const first = 20 * time.Millisecond
	unavailable := statusWith(http.StatusServiceUnavailable, "draining")
	hs := newScriptedServer(t, unavailable, unavailable, accepted)
	c := NewClient(hs.URL, WithRetry(5, first))
	sub, err := c.Submit(context.Background(), []byte(`{}`))
	if err != nil || sub.ID != "job-1" {
		t.Fatalf("Submit = %+v, %v; want job-1", sub, err)
	}
	gaps := hs.gaps()
	if len(gaps) != 2 || c.Retries() != 2 {
		t.Fatalf("requests = %d, Retries() = %d; want 3 and 2", len(gaps)+1, c.Retries())
	}
	for i, want := range []time.Duration{first, 2 * first} {
		if gaps[i] < want {
			t.Errorf("wait %d = %v, want at least %v", i+1, gaps[i], want)
		}
	}
}

// TestClientHonorsRetryAfter: a 429's Retry-After stretches the wait
// past the client's own millisecond backoff.
func TestClientHonorsRetryAfter(t *testing.T) {
	busy := func(w http.ResponseWriter) {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
	}
	hs := newScriptedServer(t, busy, accepted)
	c := NewClient(hs.URL, WithRetry(3, time.Millisecond))
	if _, err := c.Submit(context.Background(), []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	gaps := hs.gaps()
	if len(gaps) != 1 || gaps[0] < time.Second {
		t.Errorf("gaps between requests = %v, want one of at least 1s", gaps)
	}
}

// fixedDeadline reports a deadline but never expires, so a wait the
// client chooses to sleep runs to its end.
type fixedDeadline struct {
	context.Context
	dl time.Time
}

func (c fixedDeadline) Deadline() (time.Time, bool) { return c.dl, true }

// TestClientRetryBudget: a wait that fits in the context's remaining
// deadline is slept, one exactly equal to it too; a wait one
// nanosecond over it is not (one request, no wait, the last error
// back), and with no deadline every wait is slept. The client's clock
// is pinned, so the remaining budget is exact.
func TestClientRetryBudget(t *testing.T) {
	const wait = 20 * time.Millisecond
	cases := []struct {
		name     string
		budget   time.Duration // 0 means no deadline
		requests int64
	}{
		{"wait below budget sleeps", wait + time.Millisecond, 2},
		{"wait equal to budget sleeps", wait, 2},
		{"wait above budget returns", wait - time.Nanosecond, 1},
		{"no deadline always sleeps", 0, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hs, n := countingServer(t, statusWith(http.StatusServiceUnavailable, "draining"))
			c := NewClient(hs.URL, WithRetry(2, wait))
			frozen := time.Unix(1000, 0)
			c.now = func() time.Time { return frozen }
			var ctx context.Context = context.Background()
			if tc.budget > 0 {
				ctx = fixedDeadline{ctx, frozen.Add(tc.budget)}
			}
			_, err := c.Submit(ctx, []byte(`{}`))
			var he *HTTPError
			if !errors.As(err, &he) || he.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("err = %v, want the 503 back", err)
			}
			if got := n.Load(); got != tc.requests {
				t.Errorf("requests = %d, want %d", got, tc.requests)
			}
			if got := c.Retries(); got != uint64(tc.requests-1) {
				t.Errorf("Retries() = %d, want %d", got, tc.requests-1)
			}
		})
	}
}

// TestStreamCallbackErrorNotRetried: an error from Stream's callback
// comes back as the same value after one request, even from a client
// that would retry a transport failure.
func TestStreamCallbackErrorNotRetried(t *testing.T) {
	hs, n := countingServer(t, func(w http.ResponseWriter) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		_, _ = w.Write([]byte(`{"type":"status","status":{"id":"job-1","state":"running"}}` + "\n" +
			`{"type":"done","state":"done"}` + "\n"))
	})
	errStop := errors.New("caller stops")
	c := NewClient(hs.URL, WithRetry(3, time.Millisecond))
	_, err := c.Stream(context.Background(), "job-1", func(StreamLine) error { return errStop })
	if err != errStop {
		t.Errorf("err = %#v, want the callback's own error value", err)
	}
	if got := n.Load(); got != 1 || c.Retries() != 0 {
		t.Errorf("requests = %d, Retries() = %d; want 1 and 0", got, c.Retries())
	}
}

// TestClientWaitCancelled: cancelling the context during a retry wait
// ends the wait at once with the last error, not the context's.
func TestClientWaitCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hs, n := countingServer(t, statusWith(http.StatusServiceUnavailable, "draining"))
	c := NewClient(hs.URL, WithRetry(2, time.Minute))
	done := make(chan error, 1)
	go func() {
		_, err := c.Submit(ctx, []byte(`{}`))
		done <- err
	}()
	for c.Retries() == 0 { // until the minute-long wait has begun
		select {
		case err := <-done:
			t.Fatalf("Submit returned %v without a retry wait", err)
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	select {
	case err := <-done:
		var he *HTTPError
		if !errors.As(err, &he) || he.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("err = %v, want the 503 back", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a cancelled retry wait did not return")
	}
	if got := n.Load(); got != 1 {
		t.Errorf("requests = %d, want 1", got)
	}
}

// TestWithRetryDefaults: a bare client makes one attempt, and a
// non-positive first delay means 50ms.
func TestWithRetryDefaults(t *testing.T) {
	if c := NewClient("http://fleetd"); c.attempts != 1 {
		t.Errorf("bare client attempts = %d, want 1", c.attempts)
	}
	c := NewClient("http://fleetd", WithRetry(4, 0))
	if c.attempts != 4 || c.firstDelay != 50*time.Millisecond {
		t.Errorf("WithRetry(4, 0) = %d attempts from %v, want 4 from 50ms", c.attempts, c.firstDelay)
	}
}
