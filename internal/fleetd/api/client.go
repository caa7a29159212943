package api

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Client talks to a running arachnet-fleetd daemon. The zero value is
// not usable; construct with NewClient. The bare client (no options)
// performs each call exactly once; WithRetry turns on retries:
// transient transport failures and 5xx responses retry with
// exponential backoff, 429 responses honor the server's Retry-After, and
// interrupted progress streams reconnect at their last event sequence
// number.
type Client struct {
	base       string
	http       *http.Client
	attempts   int
	firstDelay time.Duration
	// now is the one clock read: the deadline check before a retry
	// wait. Tests pin it to put a wait exactly at the budget.
	now func() time.Time

	retries atomic.Uint64
}

// maxRetryDelay caps the doubling backoff between attempts.
const maxRetryDelay = 5 * time.Second

// Option configures a Client.
type Option func(*Client)

// WithTransport substitutes the HTTP transport — the seam the chaos
// harness uses to inject deterministic connection failures.
func WithTransport(rt http.RoundTripper) Option {
	return func(c *Client) { c.http.Transport = rt }
}

// WithRetry allows up to attempts tries per call. The first retry
// waits firstDelay (<= 0 means 50ms) and each later one twice the
// last, capped at 5s, so a chaos run retries on the same schedule
// every time.
func WithRetry(attempts int, firstDelay time.Duration) Option {
	if firstDelay <= 0 {
		firstDelay = 50 * time.Millisecond
	}
	return func(c *Client) { c.attempts, c.firstDelay = attempts, firstDelay }
}

// NewClient returns a client for the daemon at base (e.g.
// "http://127.0.0.1:8040"). Streaming requests disable the client
// timeout; everything else uses a generous default. With no options
// the client is bare: one attempt per call, errors surfaced as-is.
func NewClient(base string, opts ...Option) *Client {
	c := &Client{
		base:     strings.TrimRight(base, "/"),
		http:     &http.Client{},
		attempts: 1,
		//lint:allow determinism-taint a retry wait is checked against the caller's deadline; no fingerprint reads it
		now: time.Now,
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// Base returns the daemon base URL this client talks to.
func (c *Client) Base() string { return c.base }

// Retries reports how many retry waits this client has performed —
// the number fleetd-smoke asserts is non-zero under a flaky transport.
func (c *Client) Retries() uint64 { return c.retries.Load() }

// ErrBusy is returned by Submit when the daemon's admission queue is
// full; RetryAfter carries the server's suggested backoff and Message
// the server's own description of the pressure.
type ErrBusy struct {
	RetryAfter time.Duration
	// Message is the server's error body (e.g. "job queue full (64
	// deep); retry later"), empty if the body carried none.
	Message string
}

// Error implements error.
func (e ErrBusy) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("fleetd busy: %s (retry after %v)", e.Message, e.RetryAfter)
	}
	return fmt.Sprintf("fleetd queue full; retry after %v", e.RetryAfter)
}

// HTTPError is a non-2xx response, normalized: the status code plus
// the server's error message (decoded from the standard error body
// when present, raw body text otherwise).
type HTTPError struct {
	StatusCode int
	Message    string
}

// Error implements error.
func (e *HTTPError) Error() string {
	return fmt.Sprintf("fleetd: %s (HTTP %d)", e.Message, e.StatusCode)
}

// closeBody drains and closes a response body so the underlying
// connection is always reusable, error paths included.
func closeBody(resp *http.Response) {
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
}

// decodeError turns a non-2xx response into an *HTTPError, surfacing
// the server's message.
func decodeError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	msg := strings.TrimSpace(string(body))
	var e ErrorResponse
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		msg = e.Error
	}
	if msg == "" {
		msg = http.StatusText(resp.StatusCode)
	}
	return &HTTPError{StatusCode: resp.StatusCode, Message: msg}
}

// retryAfterOf parses a Retry-After header (seconds), defaulting to 1s.
func retryAfterOf(resp *http.Response) time.Duration {
	if v := resp.Header.Get("Retry-After"); v != "" {
		if secs, err := strconv.Atoi(v); err == nil && secs > 0 {
			return time.Duration(secs) * time.Second
		}
	}
	return time.Second
}

// callbackError carries an error from Stream's callback out of run,
// which returns it at once, unwrapped and unretried.
type callbackError struct{ error }

// retryWait decides from a failed attempt's error whether another
// attempt may help, and how long to wait first. ErrBusy waits at least
// its RetryAfter; a 4xx or a context error stops; a 5xx or any other
// failure (transport, torn body) waits the backoff.
func retryWait(err error, backoff time.Duration) (time.Duration, bool) {
	var busy ErrBusy
	var he *HTTPError
	switch {
	case errors.As(err, &busy):
		return max(backoff, busy.RetryAfter), true
	case errors.As(err, &he):
		return backoff, he.StatusCode >= 500
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return 0, false
	}
	return backoff, true
}

// run calls op until it succeeds, fails for good, or the client's
// attempts are spent, and returns op's last error as it was. The
// backoff doubles from the first delay up to maxRetryDelay. A wait
// that does not fit in ctx's deadline is not slept: the last error
// comes back at once.
func (c *Client) run(ctx context.Context, op func(ctx context.Context) error) error {
	backoff := c.firstDelay
	var err error
	for attempt := 1; ; attempt++ {
		if ctx.Err() != nil {
			if err == nil {
				err = ctx.Err()
			}
			return err
		}
		err = op(ctx)
		if cb, ok := err.(callbackError); ok {
			return cb.error
		}
		if err == nil || attempt >= c.attempts {
			return err
		}
		wait, retry := retryWait(err, backoff)
		if !retry {
			return err
		}
		if dl, ok := ctx.Deadline(); ok && wait > dl.Sub(c.now()) {
			return err
		}
		c.retries.Add(1)
		t := time.NewTimer(wait)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return err
		}
		backoff = min(2*backoff, maxRetryDelay)
	}
}

// Submit posts a fleet spec (the arachnet-fleet JSON schema) and
// returns the daemon's acknowledgement. A full queue yields ErrBusy
// (after the configured retries, when any, each honoring Retry-After).
func (c *Client) Submit(ctx context.Context, spec []byte) (SubmitResponse, error) {
	var sr SubmitResponse
	err := c.run(ctx, func(ctx context.Context) error {
		var err error
		sr, err = c.submitOnce(ctx, spec)
		return err
	})
	return sr, err
}

// submitOnce is one submission attempt.
func (c *Client) submitOnce(ctx context.Context, spec []byte) (SubmitResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/jobs", bytes.NewReader(spec))
	if err != nil {
		return SubmitResponse{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return SubmitResponse{}, err
	}
	defer closeBody(resp)
	switch resp.StatusCode {
	case http.StatusOK, http.StatusAccepted:
		var sr SubmitResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			return SubmitResponse{}, fmt.Errorf("fleetd: decode submit response: %w", err)
		}
		return sr, nil
	case http.StatusTooManyRequests:
		after := retryAfterOf(resp)
		busy := ErrBusy{RetryAfter: after}
		var he *HTTPError
		if err := decodeError(resp); errors.As(err, &he) {
			busy.Message = he.Message
		}
		return SubmitResponse{}, busy
	default:
		return SubmitResponse{}, decodeError(resp)
	}
}

// getJSON fetches path and decodes the 200 body into out, through the
// retry layer.
func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	return c.run(ctx, func(ctx context.Context) error {
		return c.getJSONOnce(ctx, path, out)
	})
}

// getJSONOnce is one GET attempt.
func (c *Client) getJSONOnce(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer closeBody(resp)
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Status fetches one job's lifecycle view.
func (c *Client) Status(ctx context.Context, id string) (StatusResponse, error) {
	var st StatusResponse
	err := c.getJSON(ctx, "/v1/jobs/"+id, &st)
	return st, err
}

// List enumerates all jobs known to the daemon.
func (c *Client) List(ctx context.Context) (ListResponse, error) {
	var lr ListResponse
	err := c.getJSON(ctx, "/v1/jobs", &lr)
	return lr, err
}

// Report fetches a finished job's full report and fingerprint.
func (c *Client) Report(ctx context.Context, id string) (ReportEnvelope, error) {
	var env ReportEnvelope
	err := c.getJSON(ctx, "/v1/jobs/"+id+"/report", &env)
	return env, err
}

// Health fetches the daemon's liveness/pressure view.
func (c *Client) Health(ctx context.Context) (HealthResponse, error) {
	var h HealthResponse
	err := c.getJSON(ctx, "/v1/healthz", &h)
	return h, err
}

// Cancel aborts a queued or running job.
func (c *Client) Cancel(ctx context.Context, id string) error {
	return c.run(ctx, func(ctx context.Context) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodDelete, c.base+"/v1/jobs/"+id, nil)
		if err != nil {
			return err
		}
		resp, err := c.http.Do(req)
		if err != nil {
			return err
		}
		defer closeBody(resp)
		if resp.StatusCode != http.StatusOK {
			return decodeError(resp)
		}
		return nil
	})
}

// streamState threads resume progress through stream attempts: the
// last event sequence seen (the reconnect offset) and whether the
// opening status line was already delivered to fn.
type streamState struct {
	lastSeq   uint64
	sawStatus bool
	dropped   uint64
}

// Stream follows a job's JSONL progress stream, invoking fn for each
// line until the stream ends (final "done" line included), fn returns
// an error, or ctx is cancelled. With retries configured, a transport
// failure mid-stream reconnects at ?after=<last seq> — the server
// replays only newer events, so fn sees every event exactly once and
// in order even across reconnects. It returns the terminal line when
// the stream completed normally.
func (c *Client) Stream(ctx context.Context, id string, fn func(StreamLine) error) (StreamLine, error) {
	var st streamState
	var last StreamLine
	err := c.run(ctx, func(ctx context.Context) error {
		l, err := c.streamOnce(ctx, id, &st, func(line StreamLine) error {
			if fn == nil {
				return nil
			}
			if err := fn(line); err != nil {
				return callbackError{err}
			}
			return nil
		})
		if err == nil {
			last = l
		}
		return err
	})
	return last, err
}

// deliver folds one decoded stream line into the resume state and
// hands it to fn — the dedupe/resume bookkeeping that makes reconnects
// invisible to the caller. It returns the terminal line (non-nil) once
// the stream is complete; a nil terminal with nil error means keep
// reading.
func (st *streamState) deliver(line StreamLine, fn func(StreamLine) error) (*StreamLine, error) {
	switch line.Type {
	case StreamStatus:
		// Reconnects open with a fresh status snapshot; fn sees only
		// the first so its line sequence reads like one uninterrupted
		// stream.
		if st.sawStatus {
			return nil, nil
		}
		st.sawStatus = true
	case StreamEvent:
		if line.Seq != 0 {
			if line.Seq <= st.lastSeq {
				return nil, nil // replayed duplicate
			}
			st.lastSeq = line.Seq
		}
	case StreamDone:
		// Fold drops accumulated on earlier connections into the
		// terminal line the caller keeps.
		line.Dropped += st.dropped
		return &line, fn(line)
	}
	if line.Dropped > 0 {
		st.dropped += line.Dropped
	}
	return nil, fn(line)
}

// streamOnce runs one stream connection, resuming after st.lastSeq.
func (c *Client) streamOnce(ctx context.Context, id string, st *streamState, fn func(StreamLine) error) (StreamLine, error) {
	path := c.base + "/v1/jobs/" + id + "/stream"
	if st.lastSeq > 0 {
		path += "?after=" + strconv.FormatUint(st.lastSeq, 10)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, path, nil)
	if err != nil {
		return StreamLine{}, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return StreamLine{}, err
	}
	defer closeBody(resp)
	if resp.StatusCode != http.StatusOK {
		return StreamLine{}, decodeError(resp)
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var line StreamLine
		if err := json.Unmarshal(raw, &line); err != nil {
			return StreamLine{}, fmt.Errorf("fleetd: decode stream line: %w", err)
		}
		terminal, err := st.deliver(line, fn)
		if terminal != nil {
			return *terminal, err
		}
		if err != nil {
			return StreamLine{}, err
		}
	}
	if err := sc.Err(); err != nil {
		return StreamLine{}, err
	}
	return StreamLine{}, errors.New("fleetd: stream ended without a done line")
}

// Wait polls until the job reaches a terminal state, checking every
// poll interval (default 100ms when zero). Each poll goes through the
// retry layer, so a briefly unreachable daemon does not abort a wait.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (StatusResponse, error) {
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		st, err := c.Status(ctx, id)
		if err != nil {
			return st, err
		}
		if TerminalState(st.State) {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-t.C:
		}
	}
}
