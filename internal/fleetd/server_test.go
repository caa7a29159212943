package fleetd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/arachnet"
	"repro/internal/fleetd/api"
)

// testSpec is a small, fast slots sweep used across the server tests.
const testSpec = `{"seed": 42, "workers": 2, "vehicles": [
	{"name": "sweep", "engine": "slots", "pattern": "c1", "slots": 2000, "replicate": 4}
]}`

// startServer builds a daemon and serves it over httptest; the cleanup
// drains it.
func startServer(t *testing.T, cfg Config) (*Server, *api.Client) {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
		hs.Close()
	})
	return s, api.NewClient(hs.URL)
}

// batchFingerprint runs the spec through the plain batch engine — the
// reference every daemon path must match.
func batchFingerprint(t *testing.T, spec string) string {
	t.Helper()
	f, err := arachnet.UnmarshalFleetJSON([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return rep.Fingerprint()
}

// TestSubmitRunReport is the fresh-run determinism leg: submit, wait,
// fetch the report, and require the fingerprint to equal a local batch
// run of the same (spec, seed).
func TestSubmitRunReport(t *testing.T) {
	_, c := startServer(t, Config{})
	ctx := context.Background()

	sub, err := c.Submit(ctx, []byte(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	if sub.Cached || sub.State != api.StateQueued || sub.Jobs != 4 {
		t.Fatalf("unexpected submit ack: %+v", sub)
	}
	st, err := c.Wait(ctx, sub.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != api.StateDone || st.Done != 4 || st.Error != "" {
		t.Fatalf("unexpected terminal status: %+v", st)
	}
	env, err := c.Report(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if env.Report == nil || !env.Report.Ok() {
		t.Fatalf("report not ok: %+v", env)
	}
	if got := env.Report.Fingerprint(); got != env.Fingerprint {
		t.Errorf("envelope fingerprint %s != report fingerprint %s", env.Fingerprint, got)
	}
	if want := batchFingerprint(t, testSpec); env.Fingerprint != want {
		t.Errorf("daemon fingerprint %s != batch CLI fingerprint %s", env.Fingerprint, want)
	}
}

// TestCacheHitEndToEnd is the cache-hit determinism leg: resubmitting
// the same spec (even reformatted) returns the job that ran it at once,
// with the same fingerprint and no new work.
func TestCacheHitEndToEnd(t *testing.T) {
	_, c := startServer(t, Config{})
	ctx := context.Background()

	first, err := c.Submit(ctx, []byte(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Wait(ctx, first.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}

	// Same spec, different formatting and field order: must hit.
	reformatted := []byte(`{"workers":2,"vehicles":[{"replicate":4,"slots":2000,"pattern":"c1","engine":"slots","name":"sweep"}],"seed":42}`)
	second, err := c.Submit(ctx, reformatted)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("reformatted resubmission missed the response cache")
	}
	if second.Fingerprint != st.Fingerprint {
		t.Errorf("cache-hit fingerprint %s != fresh-run fingerprint %s", second.Fingerprint, st.Fingerprint)
	}
	env, err := c.Report(ctx, second.ID)
	if err != nil {
		t.Fatal(err)
	}
	if env.ID != first.ID || env.Fingerprint != st.Fingerprint || env.Report.Fingerprint() != st.Fingerprint {
		t.Errorf("cached report not bit-identical: %+v vs %s", env.Fingerprint, st.Fingerprint)
	}
	if h, err := c.Health(ctx); err != nil || h.CacheHits != 1 {
		t.Errorf("health cache hits = %d (err %v), want 1", h.CacheHits, err)
	}

	// Different seed: must miss and queue fresh work.
	otherSeed := []byte(`{"seed": 43, "workers": 2, "vehicles": [
		{"name": "sweep", "engine": "slots", "pattern": "c1", "slots": 2000, "replicate": 4}
	]}`)
	third, err := c.Submit(ctx, otherSeed)
	if err != nil {
		t.Fatal(err)
	}
	if third.Cached {
		t.Error("differing seed hit the cache")
	}
	st3, err := c.Wait(ctx, third.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st3.Fingerprint == st.Fingerprint {
		t.Error("different seed produced an identical fingerprint")
	}
}

// TestStream checks the JSONL progress stream shape: status line,
// per-shard lifecycle events, and a done line with the fingerprint.
func TestStream(t *testing.T) {
	_, c := startServer(t, Config{})
	ctx := context.Background()

	sub, err := c.Submit(ctx, []byte(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	var events int
	sawStatus := false
	done, err := c.Stream(ctx, sub.ID, func(line api.StreamLine) error {
		switch line.Type {
		case api.StreamStatus:
			sawStatus = true
		case api.StreamEvent:
			events++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sawStatus {
		t.Error("stream did not open with a status line")
	}
	if done.Type != api.StreamDone || done.State != api.StateDone {
		t.Fatalf("stream did not close with done: %+v", done)
	}
	if done.Fingerprint == "" {
		t.Error("done line missing fingerprint")
	}
	// Events raced with the run: a late subscriber may have missed
	// early shards, but a subscriber attached at submit time should see
	// activity unless the whole sweep beat the HTTP round trip.
	t.Logf("streamed %d events, dropped %d", events, done.Dropped)

	// Streaming a finished job closes immediately with the same
	// fingerprint.
	late, err := c.Stream(ctx, sub.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if late.State != api.StateDone || late.Fingerprint != done.Fingerprint {
		t.Errorf("late stream terminal line mismatch: %+v vs %+v", late, done)
	}
}

// TestBackpressure fills the queue and requires 429 + Retry-After.
func TestBackpressure(t *testing.T) {
	// One runner, queue depth 1, and a job slow enough to hold the
	// runner while the queue fills (its fault plan keeps every slot
	// stepped; a fault-free slots job skips its steady state).
	_, c := startServer(t, Config{QueueDepth: 1, Runners: 1})
	ctx := context.Background()
	slow := `{"seed": 5, "workers": 1, "vehicles": [
		{"name": "slow", "engine": "slots", "pattern": "c1", "slots": 400000, "replicate": 4, "faults": {"feedback": {"loss_prob": 0.001}}}
	]}`
	quick := `{"seed": 6, "vehicles": [{"name": "q", "engine": "slots", "pattern": "c1", "slots": 1000}]}`

	first, err := c.Submit(ctx, []byte(slow))
	if err != nil {
		t.Fatal(err)
	}
	// The runner takes first off the queue quickly; saturate the queue
	// slot, then the next submit must bounce.
	var queued api.SubmitResponse
	for try := 0; ; try++ {
		queued, err = c.Submit(ctx, []byte(quick))
		if err == nil {
			break // occupied the single queue slot
		}
		if try >= 1000 { // 1000 × 5ms = 5s cap
			t.Fatalf("never managed to queue the second job: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	overflow := `{"seed": 9, "vehicles": [{"name": "x", "engine": "slots", "pattern": "c1", "slots": 1000}]}`
	_, err = c.Submit(ctx, []byte(overflow))
	busy, ok := err.(api.ErrBusy)
	if !ok {
		t.Fatalf("overflow submit: got %v, want ErrBusy", err)
	}
	if busy.RetryAfter <= 0 {
		t.Errorf("Retry-After not propagated: %+v", busy)
	}

	// Cancel the slow job so cleanup drains fast, then the queued one
	// completes.
	if err := c.Cancel(ctx, first.ID); err != nil {
		t.Fatal(err)
	}
	st, err := c.Wait(ctx, first.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != api.StateCancelled {
		t.Errorf("cancelled job state = %s", st.State)
	}
	st2, err := c.Wait(ctx, queued.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != api.StateDone {
		t.Errorf("queued job ended %s: %s", st2.State, st2.Error)
	}
}

// TestCancelQueued cancels a job that never started.
func TestCancelQueued(t *testing.T) {
	_, c := startServer(t, Config{QueueDepth: 2, Runners: 1})
	ctx := context.Background()
	slow := `{"seed": 5, "workers": 1, "vehicles": [
		{"name": "slow", "engine": "slots", "pattern": "c1", "slots": 400000, "replicate": 4, "faults": {"feedback": {"loss_prob": 0.001}}}
	]}`
	quick := `{"seed": 6, "vehicles": [{"name": "q", "engine": "slots", "pattern": "c1", "slots": 1000}]}`
	if _, err := c.Submit(ctx, []byte(slow)); err != nil {
		t.Fatal(err)
	}
	sub, err := c.Submit(ctx, []byte(quick))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Cancel(ctx, sub.ID); err != nil {
		t.Fatal(err)
	}
	st, err := c.Wait(ctx, sub.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != api.StateCancelled {
		t.Errorf("state = %s, want cancelled", st.State)
	}
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Counters["jobs_cancelled"]; got != 1 {
		t.Errorf("jobs_cancelled = %d, want 1 (counters %v)", got, h.Counters)
	}
	// Cancelling a terminal job is a conflict, not a crash.
	if err := c.Cancel(ctx, sub.ID); err == nil {
		t.Error("second cancel succeeded, want conflict")
	}
}

// TestCacheHitCompilesNothing resubmits a finished 10-replica and a
// finished 5,000-replica spec. A hit answers from the cached report, so
// its cost must not grow with the replica count: a compile would
// allocate at least one job name per replica.
func TestCacheHitCompilesNothing(t *testing.T) {
	s, c := startServer(t, Config{})
	ctx := context.Background()
	allocs := make(map[int]float64)
	for _, n := range []int{10, 5000} {
		spec := []byte(fmt.Sprintf(`{"seed": 9, "vehicles": [
			{"name": "r", "engine": "slots", "pattern": "c1", "slots": 1, "replicate": %d}]}`, n))
		sub, err := c.Submit(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Wait(ctx, sub.ID, 5*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		var rec *httptest.ResponseRecorder
		allocs[n] = testing.AllocsPerRun(20, func() {
			rec = httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(spec)))
		})
		var hit api.SubmitResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &hit); err != nil {
			t.Fatal(err)
		}
		if !hit.Cached || hit.Jobs != n {
			t.Errorf("replicate %d resubmit: cached=%v jobs=%d, want a hit with %d jobs", n, hit.Cached, hit.Jobs, n)
		}
	}
	if d := allocs[5000] - allocs[10]; d >= 100 || d <= -100 {
		t.Errorf("hit allocs: %.0f at 5,000 replicas vs %.0f at 10; want within 100", allocs[5000], allocs[10])
	}
}

// TestHealthAndList smoke-checks the operational endpoints.
func TestHealthAndList(t *testing.T) {
	_, c := startServer(t, Config{})
	ctx := context.Background()
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !h.OK || h.Draining || h.QueueDepth != 64 {
		t.Errorf("unexpected health: %+v", h)
	}
	sub, err := c.Submit(ctx, []byte(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, sub.ID, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	lr, err := c.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(lr.Jobs) != 1 || lr.Jobs[0].ID != sub.ID {
		t.Errorf("unexpected job list: %+v", lr)
	}
	// Unknown job IDs are 404s.
	if _, err := c.Status(ctx, "job-999999"); err == nil {
		t.Error("status of unknown job succeeded")
	}
	// Bad specs are 400s.
	if _, err := c.Submit(ctx, []byte(`{"vehicles": []}`)); err == nil {
		t.Error("empty-fleet spec accepted")
	}
}

// TestDrainRejectsSubmits pins the shutdown contract: a draining
// daemon answers 503 to new work.
func TestDrainRejectsSubmits(t *testing.T) {
	cfg := Config{Logf: t.Logf}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	c := api.NewClient(hs.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(ctx, []byte(testSpec)); err == nil {
		t.Error("draining daemon accepted a submission")
	}
}

// TestAdmissionPublishBeforeEnqueue pins the submit admission ordering:
// the job must be registered and entered into the spec index before it
// can reach a runner. The enqueue-first ordering had a race: a runner
// could finalize the job before it was indexed, leaving a stale entry
// that made every later submit of the same spec dedupe against the
// finished job. Each submission here carries its own seed, so each must
// queue a fresh run, and once it finishes the index must hold it as
// done.
func TestAdmissionPublishBeforeEnqueue(t *testing.T) {
	s, c := startServer(t, Config{Runners: 1})
	ctx := context.Background()

	seen := make(map[string]bool)
	for i := 0; i < 20; i++ {
		spec := fmt.Sprintf(`{"seed": %d, "vehicles": [{"name": "q", "engine": "slots", "pattern": "c1", "slots": 1000}]}`, 7+i)
		sub, err := c.Submit(ctx, []byte(spec))
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if sub.Cached || sub.State != api.StateQueued {
			t.Fatalf("iteration %d: fresh spec not queued: %+v", i, sub)
		}
		if seen[sub.ID] {
			t.Fatalf("iteration %d: job ID %s reused", i, sub.ID)
		}
		seen[sub.ID] = true
		st, err := c.Wait(ctx, sub.ID, 2*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != api.StateDone {
			t.Fatalf("iteration %d: state %s: %s", i, st.State, st.Error)
		}
		key, err := CacheKey([]byte(spec))
		if err != nil {
			t.Fatal(err)
		}
		s.mu.Lock()
		indexed := s.indexed(key)
		s.mu.Unlock()
		if indexed == nil || indexed.id != sub.ID || indexed.status().State != api.StateDone {
			t.Fatalf("iteration %d: spec index holds %+v after %s finished", i, indexed, sub.ID)
		}
	}
}

// TestConcurrentSubmitsQueueOnce submits one fresh spec from 8
// goroutines at once. Exactly one submission may queue a job; every
// other one is deduped onto it or, once it is done, served as a hit,
// and the daemon holds that one job.
func TestConcurrentSubmitsQueueOnce(t *testing.T) {
	const submitters = 8
	for round := 0; round < 5; round++ {
		s, c := startServer(t, Config{Runners: 1})
		spec := fmt.Sprintf(`{"seed": %d, "vehicles": [{"name": "q", "engine": "slots", "pattern": "c1", "slots": 1000}]}`, 100+round)
		subs := make([]api.SubmitResponse, submitters)
		errs := make([]error, submitters)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range subs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				subs[i], errs[i] = c.Submit(context.Background(), []byte(spec))
			}()
		}
		close(start)
		wg.Wait()
		var queued []string
		for i, sub := range subs {
			if errs[i] != nil {
				t.Fatalf("round %d submit %d: %v", round, i, errs[i])
			}
			if !sub.Cached {
				queued = append(queued, sub.ID)
			}
		}
		for _, id := range queued[1:] {
			if id != queued[0] {
				t.Fatalf("round %d: one spec queued as %v; want one job ID", round, queued)
			}
		}
		s.mu.Lock()
		jobs := len(s.jobs)
		s.mu.Unlock()
		if jobs != 1 {
			t.Fatalf("round %d: the daemon holds %d jobs for one spec, want 1", round, jobs)
		}
	}
}

// TestBackpressureRollback pins the 429 path: a submit refused by a
// full queue must leave no ghost state behind — no registry entry, no
// listing slot, no spec-index entry — and the same spec must be
// admissible again once the queue has room.
func TestBackpressureRollback(t *testing.T) {
	s, c := startServer(t, Config{QueueDepth: 1, Runners: 1})
	ctx := context.Background()
	slow := `{"seed": 5, "workers": 1, "vehicles": [
		{"name": "slow", "engine": "slots", "pattern": "c1", "slots": 400000, "replicate": 4, "faults": {"feedback": {"loss_prob": 0.001}}}
	]}`
	quick := `{"seed": 6, "vehicles": [{"name": "q", "engine": "slots", "pattern": "c1", "slots": 1000}]}`
	overflow := `{"seed": 9, "vehicles": [{"name": "x", "engine": "slots", "pattern": "c1", "slots": 1000}]}`

	first, err := c.Submit(ctx, []byte(slow))
	if err != nil {
		t.Fatal(err)
	}
	for try := 0; ; try++ {
		if _, err = c.Submit(ctx, []byte(quick)); err == nil {
			break // occupied the single queue slot
		}
		if try >= 1000 {
			t.Fatalf("never managed to queue the second job: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := c.Submit(ctx, []byte(overflow)); err == nil {
		t.Fatal("overflow submit accepted, want 429")
	}
	s.mu.Lock()
	jobs, order, indexed := len(s.jobs), len(s.order), len(s.byKey)
	s.mu.Unlock()
	if jobs != 2 || order != 2 || indexed != 2 {
		t.Fatalf("rejected submit left ghost state: jobs=%d order=%d indexed=%d, want 2/2/2", jobs, order, indexed)
	}

	// Free the queue and prove the bounced spec is admissible again.
	if err := c.Cancel(ctx, first.ID); err != nil {
		t.Fatal(err)
	}
	var retry api.SubmitResponse
	for try := 0; ; try++ {
		if retry, err = c.Submit(ctx, []byte(overflow)); err == nil {
			break
		}
		if try >= 1000 {
			t.Fatalf("bounced spec never admitted after queue freed: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	st, err := c.Wait(ctx, retry.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != api.StateDone {
		t.Errorf("readmitted job ended %s: %s", st.State, st.Error)
	}
}

// TestSubmitSizeLimit: a body past maxSpecBytes is refused with 413
// rather than truncated to its first maxSpecBytes and admitted, and a
// body of exactly maxSpecBytes is still accepted.
func TestSubmitSizeLimit(t *testing.T) {
	s, _ := startServer(t, Config{})
	submit := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body)))
		return rec
	}
	over := testSpec + strings.Repeat(" ", 9<<20)
	if rec := submit(over); rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("%d-byte submit answered %d %s, want 413", len(over), rec.Code, rec.Body)
	}
	s.mu.Lock()
	jobs := len(s.jobs)
	s.mu.Unlock()
	if jobs != 0 {
		t.Fatalf("refused submit registered %d job(s)", jobs)
	}
	atLimit := testSpec + strings.Repeat(" ", maxSpecBytes-len(testSpec))
	if rec := submit(atLimit); rec.Code != http.StatusAccepted {
		t.Fatalf("%d-byte submit answered %d %s, want 202", len(atLimit), rec.Code, rec.Body)
	}
}

// TestPaddedSpecCheckpointsCanonical: the daemon stores and checkpoints
// the canonical form of a spec, so whitespace padding neither grows
// the job's checkpoint nor changes its result.
func TestPaddedSpecCheckpointsCanonical(t *testing.T) {
	pad := strings.Repeat(" ", 64<<10)
	padded := pad + strings.ReplaceAll(testSpec, ",", ",\n"+pad) + pad
	run := func(spec string) (fingerprint string, rec Record, ckptBytes int) {
		dir := t.TempDir()
		_, c := startServer(t, Config{CheckpointDir: dir})
		ctx := context.Background()
		sub, err := c.Submit(ctx, []byte(spec))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Wait(ctx, sub.ID, 10*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		env, err := c.Report(ctx, sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		// Every record state carries the spec, so whichever the file
		// holds now shows what the job stored.
		data, err := os.ReadFile(filepath.Join(dir, sub.ID+ckptSuffix))
		if err != nil {
			t.Fatal(err)
		}
		rec, reason := decodeCheckpoint(data)
		if reason != "" {
			t.Fatal(reason)
		}
		return env.Fingerprint, rec, len(data)
	}
	fpPlain, recPlain, _ := run(testSpec)
	fpPadded, recPadded, size := run(padded)
	if string(recPadded.Spec) != string(recPlain.Spec) || len(recPlain.Spec) > len(testSpec) {
		t.Errorf("checkpointed specs: padded %d bytes, unpadded %d bytes; want the same canonical bytes, at most %d",
			len(recPadded.Spec), len(recPlain.Spec), len(testSpec))
	}
	if size >= len(padded) {
		t.Errorf("padded %d-byte spec checkpointed in %d bytes", len(padded), size)
	}
	if fpPadded != fpPlain {
		t.Errorf("padded spec fingerprint %s, unpadded %s", fpPadded, fpPlain)
	}
}

// TestAdmissionCheckpointNeverAfterDone: a runner can finish a job
// before the handler writes its admission checkpoint. The queued record
// must not then replace the done one, or a restarted daemon would run
// the finished job again. Each submission carries its own seed, so
// each one runs.
func TestAdmissionCheckpointNeverAfterDone(t *testing.T) {
	const submissions = 40
	dir := t.TempDir()
	_, c := startServer(t, Config{CheckpointDir: dir})
	ctx := context.Background()
	var notDone []string
	for i := 0; i < submissions; i++ {
		spec := strings.Replace(testSpec, `"seed": 42`, fmt.Sprintf(`"seed": %d`, 42+i), 1)
		sub, err := c.Submit(ctx, []byte(spec))
		if err != nil {
			t.Fatal(err)
		}
		if st, err := c.Wait(ctx, sub.ID, time.Millisecond); err != nil || st.State != api.StateDone {
			t.Fatalf("%s: state %q, err %v", sub.ID, st.State, err)
		}
		data, err := os.ReadFile(filepath.Join(dir, sub.ID+ckptSuffix))
		if err != nil {
			t.Fatal(err)
		}
		rec, reason := decodeCheckpoint(data)
		if reason != "" {
			t.Fatalf("%s: %s", sub.ID, reason)
		}
		if rec.State != StateDoneCkpt {
			notDone = append(notDone, sub.ID+":"+rec.State)
		}
	}
	if len(notDone) > 0 {
		t.Errorf("%d of %d finished jobs checkpointed as not done: %v", len(notDone), submissions, notDone)
	}
}

// TestResubmitKeepsOneJob resubmits one finished spec 1,000 times. A
// hit is the indexed job itself, so the daemon keeps one job and one
// checkpoint for the result, and a hit writes nothing.
func TestResubmitKeepsOneJob(t *testing.T) {
	dir := t.TempDir()
	_, c := startServer(t, Config{CheckpointDir: dir})
	ctx := context.Background()
	first, err := c.Submit(ctx, []byte(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Wait(ctx, first.ID, 5*time.Millisecond)
	if err != nil || st.State != api.StateDone {
		t.Fatalf("first run: %v / %+v", err, st)
	}
	h0, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		hit, err := c.Submit(ctx, []byte(testSpec))
		if err != nil {
			t.Fatalf("resubmit %d: %v", i, err)
		}
		if !hit.Cached || hit.ID != first.ID || hit.Fingerprint != st.Fingerprint {
			t.Fatalf("resubmit %d: %+v, want a hit on %s with fingerprint %s", i, hit, first.ID, st.Fingerprint)
		}
	}
	h1, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if w0, w1 := h0.Counters["ckpt_writes"], h1.Counters["ckpt_writes"]; w1 != w0 {
		t.Errorf("1,000 hits moved ckpt_writes from %d to %d", w0, w1)
	}
	if h1.CacheHits != 1000 || h1.CacheEntries != 1 {
		t.Errorf("health: cache_hits %d, cache_entries %d; want 1000 and 1", h1.CacheHits, h1.CacheEntries)
	}
	lr, err := c.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(lr.Jobs) != 1 {
		t.Errorf("daemon lists %d jobs after 1,000 hits, want 1", len(lr.Jobs))
	}
	files, err := filepath.Glob(filepath.Join(dir, "*"+ckptSuffix))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Errorf("checkpoint dir holds %d checkpoints after 1,000 hits, want 1: %v", len(files), files)
	}
}

// TestHitServesIndexedJobError: a spec with a shard that fails on its
// own ends done with the report's first error. A resubmit is that same
// job, so its status and its stream's done line carry the error too.
func TestHitServesIndexedJobError(t *testing.T) {
	spec := `{"seed": 21, "vehicles": [
		{"name": "ok", "engine": "slots", "pattern": "c1", "slots": 2000},
		{"name": "doomed", "engine": "slots", "pattern": "c5", "converge_within": 10}
	]}`
	f, err := arachnet.UnmarshalFleetJSON([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := rep.FirstError()
	if want == "" {
		t.Fatal("fixture has no failing shard")
	}
	_, c := startServer(t, Config{})
	ctx := context.Background()
	first, err := c.Submit(ctx, []byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	if st, err := c.Wait(ctx, first.ID, 5*time.Millisecond); err != nil || st.State != api.StateDone || st.Error != want {
		t.Fatalf("first run: %v / %+v, want done with error %q", err, st, want)
	}
	hit, err := c.Submit(ctx, []byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached || hit.ID != first.ID {
		t.Errorf("resubmit: %+v, want a hit on %s", hit, first.ID)
	}
	st, err := c.Status(ctx, hit.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Error != want {
		t.Errorf("hit status error %q, want %q", st.Error, want)
	}
	done, err := c.Stream(ctx, hit.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != api.StateDone || done.Error != want {
		t.Errorf("hit stream done line: state %s error %q, want done with %q", done.State, done.Error, want)
	}
}

// TestTimedOutJobRerunsOnResubmit: a shard cut by the spec's job
// timeout is a wall-clock artifact, so a done job with one answers no
// resubmit. The spec runs again under a new job ID, and the rerun takes
// over the spec index.
func TestTimedOutJobRerunsOnResubmit(t *testing.T) {
	spec := []byte(`{"seed": 13, "workers": 1, "job_timeout_ms": 1, "vehicles": [
		{"name": "slow", "engine": "slots", "pattern": "c2", "slots": 60000, "replicate": 2, "faults": {"feedback": {"loss_prob": 0.001}}}
	]}`)
	s, c := startServer(t, Config{})
	ctx := context.Background()
	first, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := c.Wait(ctx, first.ID, 5*time.Millisecond); err != nil || st.State != api.StateDone {
		t.Fatalf("first run: %v / %+v", err, st)
	}
	env, err := c.Report(ctx, first.ID)
	if err != nil {
		t.Fatal(err)
	}
	if env.Report.TimedOut == 0 {
		t.Fatalf("fixture too fast: no shard timed out (%+v)", env.Report)
	}
	second, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if second.Cached || second.ID == first.ID {
		t.Fatalf("resubmit of a timed-out job: %+v, want a new job", second)
	}
	if _, err := c.Wait(ctx, second.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	key, err := CacheKey(spec)
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	owner := s.byKey[key]
	s.mu.Unlock()
	if owner == nil || owner.id != second.ID {
		t.Errorf("spec index holds %v, want the rerun %s", owner, second.ID)
	}
	if h, err := c.Health(ctx); err != nil || h.CacheHits != 0 || h.CacheEntries != 0 {
		t.Errorf("health: %v / cache_hits %d, cache_entries %d; want 0 and 0", err, h.CacheHits, h.CacheEntries)
	}
}
