package fleetd

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/fleetd/api"
)

// resumeSpec is slow enough (single worker, ~12 shards of 100k slots)
// that a drain reliably lands mid-sweep, and deterministic so the
// resumed fingerprint has a pinned reference. Its small fault plan
// keeps every slot stepped: a fault-free slots job skips its steady
// state and would finish before the drain.
const resumeSpec = `{"seed": 77, "workers": 1, "vehicles": [
	{"name": "long", "engine": "slots", "pattern": "c2", "slots": 100000, "replicate": 12, "faults": {"feedback": {"loss_prob": 0.001}}}
]}`

// TestResumeAfterDrain is the kill/restart determinism leg: drain a
// daemon mid-sweep, restart over the same checkpoint directory, and
// require (a) completed shards are not recomputed and (b) the resumed
// report fingerprint equals an uninterrupted batch run's.
func TestResumeAfterDrain(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	want := batchFingerprint(t, resumeSpec)

	// First daemon: submit, let a few shards finish, then drain.
	s1, err := New(Config{CheckpointDir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	s1.Start()
	hs1 := httptest.NewServer(s1.Handler())
	c1 := api.NewClient(hs1.URL)
	sub, err := c1.Submit(ctx, []byte(resumeSpec))
	if err != nil {
		t.Fatal(err)
	}
	progressed := false
	for try := 0; try < 3000 && !progressed; try++ { // 3000 × 10ms = 30s cap
		st, err := c1.Status(ctx, sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == api.StateDone {
			t.Fatal("sweep finished before the drain; slow the resume spec down")
		}
		if st.State == api.StateRunning && st.Done >= 2 {
			progressed = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !progressed {
		t.Fatal("no shard progress within the polling budget")
	}
	dctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	if err := s1.Drain(dctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	// The drain ended the job back in queued. A cancel that arrives
	// before the listener closes is a conflict, and the checkpoint stays
	// for the resume.
	var conflict *api.HTTPError
	if err := c1.Cancel(ctx, sub.ID); !errors.As(err, &conflict) || conflict.StatusCode != http.StatusConflict {
		t.Errorf("cancel of a drain-interrupted job: %v, want HTTP 409", err)
	}
	hs1.Close()

	// The checkpoint must exist and carry completed shard outcomes.
	recs, report := mustStore(t, dir).Load()
	if !report.Clean() {
		t.Fatalf("checkpoint recovery not clean: %s", report)
	}
	if len(recs) != 1 || recs[0].ID != sub.ID || recs[0].State != StateRunningCkpt {
		t.Fatalf("unexpected checkpoints after drain: %+v", recs)
	}
	if len(recs[0].Outcomes) < 2 {
		t.Fatalf("drain checkpoint has %d outcomes, want >= 2", len(recs[0].Outcomes))
	}
	partial := len(recs[0].Outcomes)

	// Second daemon over the same directory: must auto-resume.
	s2, err := New(Config{CheckpointDir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	s2.Start()
	hs2 := httptest.NewServer(s2.Handler())
	defer hs2.Close()
	c2 := api.NewClient(hs2.URL)
	t.Cleanup(func() {
		dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s2.Drain(dctx); err != nil {
			t.Errorf("drain s2: %v", err)
		}
	})

	// The live done count starts from the preloaded shards: every
	// running status, the first included, already counts them.
	sawRunning := false
	for try := 0; try < 6000; try++ { // 6000 × 5ms = 30s cap
		st, err := c2.Status(ctx, sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == api.StateRunning {
			sawRunning = true
			if st.Done < st.Resumed {
				t.Fatalf("running status reports done %d < resumed %d", st.Done, st.Resumed)
			}
		}
		if st.State != api.StateQueued && st.State != api.StateRunning {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !sawRunning {
		t.Error("never saw the resumed job running")
	}
	st, err := c2.Wait(ctx, sub.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != api.StateDone {
		t.Fatalf("resumed job ended %s: %s", st.State, st.Error)
	}
	if st.Done != st.Total {
		t.Errorf("final status done %d/%d", st.Done, st.Total)
	}
	if st.Resumed != partial {
		t.Errorf("resumed shard count = %d, want %d (checkpointed work was recomputed?)", st.Resumed, partial)
	}
	if st.Fingerprint != want {
		t.Errorf("resumed fingerprint %s != uninterrupted batch fingerprint %s", st.Fingerprint, want)
	}
	env, err := c2.Report(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if env.Report.Fingerprint() != want {
		t.Error("resumed report re-fingerprints differently from the batch reference")
	}
	if env.Report.Completed != 12 {
		t.Errorf("resumed report completed %d/12 shards", env.Report.Completed)
	}

	// The finished job persisted a done checkpoint, so a third daemon
	// serves its report without running anything — and its cache is
	// warm for resubmissions of the same spec.
	s3, err := New(Config{CheckpointDir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	s3.Start()
	hs3 := httptest.NewServer(s3.Handler())
	defer hs3.Close()
	c3 := api.NewClient(hs3.URL)
	t.Cleanup(func() {
		dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s3.Drain(dctx); err != nil {
			t.Errorf("drain s3: %v", err)
		}
	})
	env3, err := c3.Report(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if env3.Fingerprint != want {
		t.Errorf("restart-loaded report fingerprint %s != %s", env3.Fingerprint, want)
	}
	hit, err := c3.Submit(ctx, []byte(resumeSpec))
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached || hit.Fingerprint != want {
		t.Errorf("warm-restart cache miss or mismatch: %+v", hit)
	}
}

// TestQueuedJobSurvivesDrain: a job still waiting in the queue when
// the daemon drains is re-run from scratch by the next daemon.
func TestQueuedJobSurvivesDrain(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	s1, err := New(Config{CheckpointDir: dir, Runners: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	s1.Start()
	hs1 := httptest.NewServer(s1.Handler())
	c1 := api.NewClient(hs1.URL)
	// Occupy the runner with a slow sweep, then queue a quick one.
	if _, err := c1.Submit(ctx, []byte(resumeSpec)); err != nil {
		t.Fatal(err)
	}
	quick := `{"seed": 3, "vehicles": [{"name": "q", "engine": "slots", "pattern": "c1", "slots": 2000, "replicate": 2}]}`
	sub, err := c1.Submit(ctx, []byte(quick))
	if err != nil {
		t.Fatal(err)
	}
	dctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	if err := s1.Drain(dctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	hs1.Close()

	s2, err := New(Config{CheckpointDir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	s2.Start()
	hs2 := httptest.NewServer(s2.Handler())
	defer hs2.Close()
	t.Cleanup(func() {
		dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s2.Drain(dctx); err != nil {
			t.Errorf("drain s2: %v", err)
		}
	})
	c2 := api.NewClient(hs2.URL)
	st, err := c2.Wait(ctx, sub.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != api.StateDone {
		t.Fatalf("queued-then-drained job ended %s: %s", st.State, st.Error)
	}
	if want := batchFingerprint(t, quick); st.Fingerprint != want {
		t.Errorf("fingerprint %s != batch %s", st.Fingerprint, want)
	}
}

// TestCheckpointCorruptionTolerated: a torn checkpoint, or a leftover
// JSON checkpoint from an older daemon, is quarantined as <id>.corrupt
// with its bytes preserved and reported, never fatal to the rest of
// the fleet; a stray temp file is skipped.
func TestCheckpointCorruptionTolerated(t *testing.T) {
	dir := t.TempDir()
	rec := Record{ID: "job-000009", State: StateQueuedCkpt, Spec: []byte(`{"seed":9}`)}
	full := AppendCheckpoint(nil, &rec)
	corrupt := map[string][]byte{
		"job-000009" + ckptSuffix: full[:len(full)/2],
		"job-000011" + legacyJSONSuffix: []byte(`{"version":2,"crc":"da48ca8a",` +
			`"record":{"version":2,"id":"job-000011","state":"queued","spec":{"seed":11}}}` + "\n"),
	}
	for name, data := range corrupt {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "job-000010"+ckptSuffix+".1.tmp"), []byte("ignored"), 0o644); err != nil {
		t.Fatal(err)
	}
	store := mustStore(t, dir)
	recs, report := store.Load()
	if len(recs) != 0 {
		t.Errorf("corrupt dir yielded records: %+v", recs)
	}
	if report.Loaded != 0 {
		t.Errorf("report claims %d loaded records", report.Loaded)
	}
	if len(report.Quarantined) != len(corrupt) {
		t.Fatalf("want %d quarantines, got %+v", len(corrupt), report.Quarantined)
	}
	for _, q := range report.Quarantined {
		data, ok := corrupt[q.File]
		if !ok {
			t.Fatalf("unexpected quarantine %+v", q)
		}
		id := q.File[:len("job-000000")]
		if q.MovedTo != id+corruptSuffix {
			t.Errorf("%s: quarantine destination = %q", q.File, q.MovedTo)
		}
		if q.Reason == "" {
			t.Errorf("%s: quarantine carries no reason", q.File)
		}
		// The bytes must be preserved for post-mortem at the new name,
		// and the original file must be gone so the next load skips it.
		moved, err := os.ReadFile(filepath.Join(dir, q.MovedTo))
		if err != nil {
			t.Fatalf("%s: quarantined bytes unreadable: %v", q.File, err)
		}
		if string(moved) != string(data) {
			t.Errorf("%s: quarantined bytes = %q, want the original content", q.File, moved)
		}
		if _, err := os.Stat(filepath.Join(dir, q.File)); !os.IsNotExist(err) {
			t.Errorf("%s still present after quarantine (err=%v)", q.File, err)
		}
	}
	// A second load over the same directory is clean: the quarantine is
	// not re-reported and the .corrupt files are ignored.
	recs2, report2 := store.Load()
	if len(recs2) != 0 || !report2.Clean() {
		t.Errorf("second load not clean: recs=%+v report=%s", recs2, report2)
	}
	// The daemon still constructs and serves over such a directory.
	s, err := New(Config{CheckpointDir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	dctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(dctx); err != nil {
		t.Error(err)
	}
}

// TestCheckpointCRCMismatchQuarantined: a checkpoint whose frame still
// parses but whose payload had one byte flipped is quarantined for its
// CRC — silent bit rot is caught, not half-trusted.
func TestCheckpointCRCMismatchQuarantined(t *testing.T) {
	dir := t.TempDir()
	store := mustStore(t, dir)
	rec := Record{ID: "job-000001", State: StateQueuedCkpt, Spec: []byte(`{"seed":1}`)}
	if err := store.Write(rec); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "job-000001"+ckptSuffix)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte inside the embedded spec; framing stays intact.
	at := strings.Index(string(data), `"seed":1`)
	if at < 0 {
		t.Fatal("tamper target not found in checkpoint bytes")
	}
	data[at+len(`"seed":`)] = '2'
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, report := store.Load()
	if len(recs) != 0 {
		t.Errorf("tampered checkpoint loaded: %+v", recs)
	}
	if len(report.Quarantined) != 1 || !strings.Contains(report.Quarantined[0].Reason, "checkpoint crc") {
		t.Fatalf("want a crc-mismatch quarantine, got %+v", report.Quarantined)
	}
}

// mustStore opens a checkpoint store or fails the test.
func mustStore(t *testing.T, dir string) *CheckpointStore {
	t.Helper()
	st, err := NewCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}
