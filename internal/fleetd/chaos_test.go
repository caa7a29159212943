package fleetd

// Chaos harness. Every scenario here injects a deterministic fault —
// torn checkpoint writes, a full disk, a process killed mid-
// checkpoint, a flaky client transport, a truncated stream — and
// asserts the same convergence property: the system ends up with
// the bit-identical fingerprint an unfaulted run produces. No scenario
// touches a real disk fault or a real network failure; everything goes
// through the FS and http.RoundTripper seams, so the tests
// are exact replays, not probabilistic soak runs.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fleetd/api"
	"repro/internal/obs"
)

// ---------------------------------------------------------------------
// Fault-injecting filesystem
// ---------------------------------------------------------------------

const (
	faultNone   = iota
	faultKill   // every op fails once armed: a process dead mid-checkpoint
	faultTorn   // writes silently persist only half their bytes: a lying disk
	faultENOSPC // write-path ops fail with a full-disk error until healed
)

// faultFS wraps an inner FS and injects one fault mode after a given
// number of operations. Every mutation the crash-safety argument
// depends on crosses FS, so arming the fault at op K deterministically
// simulates "the machine stopped cooperating at syscall K".
type faultFS struct {
	inner FS
	mu    sync.Mutex
	mode  int
	after int // ops that succeed before the fault arms
	ops   int
}

func newFaultFS(mode, after int) *faultFS {
	return &faultFS{inner: OSFS(), mode: mode, after: after}
}

// step counts one operation and reports the active fault mode.
func (f *faultFS) step() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ops++
	if f.mode == faultNone || f.ops <= f.after {
		return faultNone
	}
	return f.mode
}

// heal clears the fault (the operator freed disk space).
func (f *faultFS) heal() {
	f.mu.Lock()
	f.mode = faultNone
	f.mu.Unlock()
}

var errKilled = errors.New("injected: process killed mid-checkpoint")
var errNoSpace = errors.New("injected: no space left on device")

func (f *faultFS) MkdirAll(dir string, perm os.FileMode) error {
	if f.step() == faultKill {
		return errKilled
	}
	return f.inner.MkdirAll(dir, perm)
}

func (f *faultFS) Create(name string) (File, error) {
	switch f.step() {
	case faultKill:
		return nil, errKilled
	case faultENOSPC:
		return nil, errNoSpace
	case faultTorn:
		inner, err := f.inner.Create(name)
		if err != nil {
			return nil, err
		}
		return &tornFile{inner: inner}, nil
	}
	return f.inner.Create(name)
}

func (f *faultFS) Rename(oldpath, newpath string) error {
	if f.step() == faultKill {
		return errKilled
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f *faultFS) Remove(name string) error {
	if f.step() == faultKill {
		return errKilled
	}
	return f.inner.Remove(name)
}

func (f *faultFS) ReadDir(dir string) ([]os.DirEntry, error) {
	if f.step() == faultKill {
		return nil, errKilled
	}
	return f.inner.ReadDir(dir)
}

func (f *faultFS) ReadFile(name string) ([]byte, error) {
	if f.step() == faultKill {
		return nil, errKilled
	}
	return f.inner.ReadFile(name)
}

func (f *faultFS) SyncDir(dir string) error {
	switch f.step() {
	case faultKill:
		return errKilled
	case faultENOSPC:
		return errNoSpace
	}
	return f.inner.SyncDir(dir)
}

// tornFile persists only the first half of every write while reporting
// full success — the lying-disk failure the CRC envelope exists to
// catch. Sync and Close succeed, so the truncated bytes get committed.
type tornFile struct{ inner File }

func (t *tornFile) Write(p []byte) (int, error) {
	if _, err := t.inner.Write(p[:len(p)/2]); err != nil {
		return 0, err
	}
	return len(p), nil
}

func (t *tornFile) Sync() error  { return t.inner.Sync() }
func (t *tornFile) Close() error { return t.inner.Close() }

// ---------------------------------------------------------------------
// Fault-injecting transports
// ---------------------------------------------------------------------

// flakyRT fails every third request with a transport error — a
// deterministic schedule (never two consecutive failures), so a client
// with MaxAttempts >= 2 always converges.
type flakyRT struct {
	next     http.RoundTripper
	n        atomic.Uint64
	injected atomic.Uint64
}

func (rt *flakyRT) RoundTrip(req *http.Request) (*http.Response, error) {
	if n := rt.n.Add(1); n%3 == 0 {
		rt.injected.Add(1)
		return nil, fmt.Errorf("injected: connection reset (request %d)", n)
	}
	return rt.next.RoundTrip(req)
}

// cutRT truncates the first `cuts` stream response bodies after
// `limit` bytes, forcing the client to reconnect mid-stream.
type cutRT struct {
	next  http.RoundTripper
	cuts  atomic.Int32
	limit int
}

func (rt *cutRT) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := rt.next.RoundTrip(req)
	if err != nil || !strings.Contains(req.URL.Path, "/stream") {
		return resp, err
	}
	if rt.cuts.Add(-1) >= 0 {
		resp.Body = &cutBody{inner: resp.Body, remain: rt.limit}
	}
	return resp, nil
}

type cutBody struct {
	inner interface {
		Read([]byte) (int, error)
		Close() error
	}
	remain int
}

func (b *cutBody) Read(p []byte) (int, error) {
	if b.remain <= 0 {
		return 0, errors.New("injected: stream connection torn")
	}
	if len(p) > b.remain {
		p = p[:b.remain]
	}
	n, err := b.inner.Read(p)
	b.remain -= n
	return n, err
}

func (b *cutBody) Close() error { return b.inner.Close() }

// chaosServer starts a daemon and returns it plus its base URL, so
// tests can attach clients with custom transports. Cleanup drains.
func chaosServer(t *testing.T, cfg Config) (*Server, string) {
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
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
		hs.Close()
	})
	return s, hs.URL
}

// ---------------------------------------------------------------------
// Scenario: torn checkpoint writes
// ---------------------------------------------------------------------

// TestChaosTornWriteQuarantinedAndConverges: a disk that persists only
// half of every checkpoint write cannot poison a restart. The torn
// file fails its CRC, is quarantined as <id>.corrupt, and a
// resubmission of the spec converges to the unfaulted fingerprint.
func TestChaosTornWriteQuarantinedAndConverges(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	want := batchFingerprint(t, testSpec)

	// Daemon 1 writes every checkpoint through the lying disk. The run
	// itself is unaffected — only durability is compromised.
	s1, err := New(Config{CheckpointDir: dir, FS: newFaultFS(faultTorn, 0), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	s1.Start()
	hs1 := httptest.NewServer(s1.Handler())
	c1 := api.NewClient(hs1.URL)
	sub, err := c1.Submit(ctx, []byte(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	st, err := c1.Wait(ctx, sub.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != api.StateDone || st.Fingerprint != want {
		t.Fatalf("faulted-disk run: state=%s fp=%s want done/%s", st.State, st.Fingerprint, want)
	}
	dctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	if err := s1.Drain(dctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	hs1.Close()

	// Daemon 2 (honest disk): the torn checkpoint must be quarantined,
	// not half-trusted, and the spec must re-run to the same answer.
	s2, c2 := startServer(t, Config{CheckpointDir: dir})
	if _, err := os.Stat(filepath.Join(dir, sub.ID+corruptSuffix)); err != nil {
		t.Errorf("torn checkpoint not quarantined: %v", err)
	}
	h, err := c2.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Counters["ckpt_quarantined"] != 1 {
		t.Errorf("ckpt_quarantined = %d, want 1 (counters: %v)", h.Counters["ckpt_quarantined"], h.Counters)
	}
	lr, err := c2.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(lr.Jobs) != 0 {
		t.Errorf("quarantined checkpoint resurrected jobs: %+v", lr.Jobs)
	}
	sub2, err := c2.Submit(ctx, []byte(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	st2, err := c2.Wait(ctx, sub2.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Fingerprint != want {
		t.Errorf("post-quarantine rerun fingerprint %s != batch %s", st2.Fingerprint, want)
	}
	_ = s2
}

// ---------------------------------------------------------------------
// Scenario: process killed at a checkpoint boundary
// ---------------------------------------------------------------------

// chaosKillSpec is slow enough (single worker) that the drain lands
// mid-sweep and several periodic checkpoints get a chance to commit.
// The small fault plan keeps every slot stepped (a fault-free slots
// job skips its steady state); the deadline and dedupe specs below
// carry it for the same reason.
const chaosKillSpec = `{"seed": 123, "workers": 1, "vehicles": [
	{"name": "kill", "engine": "slots", "pattern": "c2", "slots": 30000, "replicate": 8, "faults": {"feedback": {"loss_prob": 0.001}}}
]}`

// TestChaosKillAtCheckpoint: the filesystem dies at op K — before the
// admission write, right after it, or somewhere in the periodic flush
// stream. A job is admitted only once its admission checkpoint is
// durable, so a kill before that write refuses the submit (503) and
// leaves nothing on disk, and an admitted job always leaves a
// checkpoint. Whatever survived, a restarted daemon (or, when nothing
// survived, a resubmission) converges to the unfaulted fingerprint:
// crash-safe rename means the last committed checkpoint is always a
// consistent one.
func TestChaosKillAtCheckpoint(t *testing.T) {
	want := batchFingerprint(t, chaosKillSpec)
	for _, after := range []int{2, 10, 26, 80} {
		after := after
		t.Run(fmt.Sprintf("kill-after-%d-ops", after), func(t *testing.T) {
			dir := t.TempDir()
			ctx := context.Background()
			s1, err := New(Config{
				CheckpointDir:   dir,
				FS:              newFaultFS(faultKill, after),
				CheckpointEvery: 15 * time.Millisecond,
				Logf:            t.Logf,
			})
			if err != nil {
				t.Fatal(err)
			}
			s1.Start()
			hs1 := httptest.NewServer(s1.Handler())
			c1 := api.NewClient(hs1.URL)
			// Ops 1 and 2 are New's MkdirAll and ReadDir, so at K=2 the
			// admission write is the first op to fail.
			sub, err := c1.Submit(ctx, []byte(chaosKillSpec))
			admitted := after > 2
			if admitted && err != nil {
				t.Fatal(err)
			}
			var he *api.HTTPError
			if !admitted && (!errors.As(err, &he) || he.StatusCode != 503 || !strings.Contains(he.Message, "degraded")) {
				t.Fatalf("submit with the admission write killed: want 503 degraded, got %v / %+v", err, sub)
			}
			for try := 0; admitted && try < 3000; try++ {
				st, err := c1.Status(ctx, sub.ID)
				if err != nil {
					t.Fatal(err)
				}
				if st.State == api.StateDone || (st.State == api.StateRunning && st.Done >= 2) {
					break
				}
				time.Sleep(5 * time.Millisecond)
			}
			dctx, cancel := context.WithTimeout(ctx, 15*time.Second)
			if err := s1.Drain(dctx); err != nil {
				t.Fatal(err)
			}
			cancel()
			hs1.Close()

			// Whatever the kill point, the directory holds either a
			// consistent checkpoint or nothing — never garbage.
			recs, report := mustStore(t, dir).Load()
			if !report.Clean() {
				t.Fatalf("kill left an inconsistent checkpoint behind: %s", report)
			}
			if admitted != (len(recs) > 0) {
				t.Fatalf("admitted=%v but %d checkpoint(s) on disk", admitted, len(recs))
			}

			s2, c2 := startServer(t, Config{CheckpointDir: dir})
			_ = s2
			id := sub.ID
			if !admitted {
				// The job was never admitted (the kill landed before the
				// admission write committed): the contract is that the
				// client resubmits.
				if lr, err := c2.List(ctx); err != nil || len(lr.Jobs) != 0 {
					t.Fatalf("refused job survived the restart? %v / %+v", err, lr)
				}
				resub, err := c2.Submit(ctx, []byte(chaosKillSpec))
				if err != nil {
					t.Fatal(err)
				}
				id = resub.ID
			}
			st, err := c2.Wait(ctx, id, 10*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if st.State != api.StateDone {
				t.Fatalf("post-kill run ended %s: %s", st.State, st.Error)
			}
			if st.Fingerprint != want {
				t.Errorf("post-kill fingerprint %s != unfaulted %s (resumed=%d)", st.Fingerprint, want, st.Resumed)
			}
		})
	}
}

// ---------------------------------------------------------------------
// Scenario: full disk -> degraded mode -> recovery
// ---------------------------------------------------------------------

// TestChaosENOSPCDegradedAndRecovers: when the checkpoint dir stops
// accepting writes the daemon enters degraded mode. A job is admitted
// only once its admission checkpoint is durable, so new specs get 503,
// while finished specs and health keep serving (a hit writes nothing).
// Every write attempt doubles as the recovery probe: after the disk
// heals, the next new spec's admission write succeeds and restores
// normal service.
func TestChaosENOSPCDegradedAndRecovers(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	fault := newFaultFS(faultNone, 0)
	s, base := chaosServer(t, Config{CheckpointDir: dir, FS: fault})
	c := api.NewClient(base)

	specA := testSpec
	wantA := batchFingerprint(t, specA)
	subA, err := c.Submit(ctx, []byte(specA))
	if err != nil {
		t.Fatal(err)
	}
	if st, err := c.Wait(ctx, subA.ID, 10*time.Millisecond); err != nil || st.Fingerprint != wantA {
		t.Fatalf("healthy-phase run: %v / %+v", err, st)
	}

	// Disk fills. The next spec's admission write fails, flipping the
	// daemon degraded, and the spec is refused with an explanatory 503
	// rather than admitted without its durability guarantee.
	fault.mu.Lock()
	fault.mode = faultENOSPC
	fault.mu.Unlock()
	specB := `{"seed": 7, "vehicles": [{"name": "b", "engine": "slots", "pattern": "c1", "slots": 2000, "replicate": 3}]}`
	var he *api.HTTPError
	if _, err := c.Submit(ctx, []byte(specB)); !errors.As(err, &he) || he.StatusCode != 503 || !strings.Contains(he.Message, "degraded") {
		t.Fatalf("submit as the disk fills: want 503 degraded, got %v", err)
	}
	if deg, reason := s.Degraded(); !deg || reason == "" {
		t.Fatalf("daemon not degraded after failed admission write (deg=%v reason=%q)", deg, reason)
	}
	if lr, err := c.List(ctx); err != nil || len(lr.Jobs) != 1 || lr.Jobs[0].ID != subA.ID {
		t.Fatalf("refused submit left a job behind: %v / %+v", err, lr)
	}

	// Each new spec probes again and is refused while the disk is full;
	// finished specs and health still serve.
	specC := `{"seed": 11, "vehicles": [{"name": "c", "engine": "slots", "pattern": "c1", "slots": 2000, "replicate": 2}]}`
	if _, err := c.Submit(ctx, []byte(specC)); !errors.As(err, &he) || he.StatusCode != 503 || !strings.Contains(he.Message, "degraded") {
		t.Fatalf("degraded submit: want 503 degraded, got %v", err)
	}
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Degraded || h.DegradedReason == "" {
		t.Errorf("health hides degraded state: %+v", h)
	}
	if h.Counters["ckpt_write_errors"] < 2 || h.Counters["degraded_entries"] != 1 {
		t.Errorf("degraded counters wrong: %v", h.Counters)
	}
	if hit, err := c.Submit(ctx, []byte(specA)); err != nil || !hit.Cached || hit.ID != subA.ID || hit.Fingerprint != wantA {
		t.Fatalf("finished spec must serve in degraded mode: %v / %+v", err, hit)
	}

	// Disk heals. A hit writes nothing, so it probes nothing: the
	// daemon stays degraded until specC's admission write succeeds,
	// which flips it healthy again — no dedicated prober.
	fault.heal()
	if hit, err := c.Submit(ctx, []byte(specA)); err != nil || !hit.Cached || hit.ID != subA.ID {
		t.Fatalf("post-heal cache hit: %v / %+v", err, hit)
	}
	if deg, _ := s.Degraded(); !deg {
		t.Fatal("a hit probed the disk; only checkpoint writes may")
	}
	subC, err := c.Submit(ctx, []byte(specC))
	if err != nil {
		t.Fatalf("healed daemon refuses new work: %v", err)
	}
	if deg, _ := s.Degraded(); deg {
		t.Fatal("daemon still degraded after a successful admission write")
	}
	if st, err := c.Wait(ctx, subC.ID, 10*time.Millisecond); err != nil || st.Fingerprint != batchFingerprint(t, specC) {
		t.Fatalf("post-heal run diverged: %v / %+v", err, st)
	}
	subB, err := c.Submit(ctx, []byte(specB))
	if err != nil {
		t.Fatalf("healed daemon refuses the spec it bounced: %v", err)
	}
	if st, err := c.Wait(ctx, subB.ID, 10*time.Millisecond); err != nil || st.Fingerprint != batchFingerprint(t, specB) {
		t.Fatalf("resubmitted bounced spec diverged: %v / %+v", err, st)
	}
	h, err = c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Degraded || h.Counters["degraded_entries"] != 1 || h.Counters["degraded_exits"] != 1 {
		t.Errorf("recovery not reflected in health: %+v", h)
	}
}

// ---------------------------------------------------------------------
// Scenario: flaky client transport
// ---------------------------------------------------------------------

// TestChaosFlakyTransport: a transport that drops every third request
// is invisible to a retrying client — submit, status polling, and the
// report all succeed, and the fingerprint equals the unfaulted
// reference. The bare client, by contrast, surfaces the failure.
func TestChaosFlakyTransport(t *testing.T) {
	_, base := chaosServer(t, Config{})
	ctx := context.Background()
	want := batchFingerprint(t, testSpec)

	flaky := &flakyRT{next: http.DefaultTransport}
	c := api.NewClient(base,
		api.WithTransport(flaky),
		api.WithRetry(5, time.Millisecond),
	)
	sub, err := c.Submit(ctx, []byte(testSpec))
	if err != nil {
		t.Fatalf("retrying submit through flaky transport: %v", err)
	}
	st, err := c.Wait(ctx, sub.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != api.StateDone || st.Fingerprint != want {
		t.Fatalf("flaky-transport run: %+v, want done/%s", st, want)
	}
	env, err := c.Report(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if env.Fingerprint != want {
		t.Errorf("report fingerprint %s != %s", env.Fingerprint, want)
	}
	if flaky.injected.Load() == 0 {
		t.Fatal("fault never fired; the scenario tested nothing")
	}
	if c.Retries() == 0 {
		t.Error("client reports zero retries despite injected transport failures")
	}

	// Control: a bare client on the same transport schedule fails fast.
	bare := api.NewClient(base, api.WithTransport(&flakyRT{next: http.DefaultTransport}))
	var firstErr error
	for i := 0; i < 3 && firstErr == nil; i++ {
		_, firstErr = bare.Health(ctx)
	}
	if firstErr == nil {
		t.Error("bare client never surfaced the injected transport failure")
	}
}

// ---------------------------------------------------------------------
// Scenario: stream torn mid-flight, resumed by sequence number
// ---------------------------------------------------------------------

// TestChaosStreamResumesExactlyOnce: the first two stream connections
// are torn after a few hundred bytes. The client reconnects at
// ?after=<last seq> and must deliver every event exactly once, in
// order, with a single status line and zero drops — indistinguishable
// from an untorn stream.
func TestChaosStreamResumesExactlyOnce(t *testing.T) {
	_, base := chaosServer(t, Config{})
	ctx := context.Background()

	// Finish the job first so the event log is complete and the
	// expected event count (start+finish per shard) is exact.
	setup := api.NewClient(base)
	sub, err := setup.Submit(ctx, []byte(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := setup.Wait(ctx, sub.ID, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	cut := &cutRT{next: http.DefaultTransport, limit: 350}
	cut.cuts.Store(2)
	c := api.NewClient(base,
		api.WithTransport(cut),
		api.WithRetry(5, time.Millisecond),
	)
	var statusLines, events int
	var lastSeq uint64
	seen := map[uint64]bool{}
	last, err := c.Stream(ctx, sub.ID, func(line api.StreamLine) error {
		switch line.Type {
		case api.StreamStatus:
			statusLines++
		case api.StreamEvent:
			events++
			if line.Seq <= lastSeq {
				t.Errorf("event seq %d not increasing (prev %d)", line.Seq, lastSeq)
			}
			if seen[line.Seq] {
				t.Errorf("event seq %d delivered twice", line.Seq)
			}
			seen[line.Seq] = true
			lastSeq = line.Seq
		}
		return nil
	})
	if err != nil {
		t.Fatalf("stream did not survive the torn connections: %v", err)
	}
	if cut.cuts.Load() >= 0 {
		t.Fatal("stream fault never fired; the scenario tested nothing")
	}
	if statusLines != 1 {
		t.Errorf("saw %d status lines across reconnects, want exactly 1", statusLines)
	}
	// testSpec compiles to 4 shards; each emits a start and a finish.
	if events != 8 {
		t.Errorf("saw %d events, want exactly 8 (4 shards x start+finish)", events)
	}
	if last.Type != api.StreamDone || last.State != api.StateDone {
		t.Errorf("terminal line: %+v", last)
	}
	if last.Dropped != 0 {
		t.Errorf("resumed stream reports %d drops, want 0", last.Dropped)
	}
}

// ---------------------------------------------------------------------
// Scenario: failing shards run once
// ---------------------------------------------------------------------

// chaosShardSpec compiles to 6 shards: 4 healthy ones, then 2 that can
// never converge within one slot and so fail on their own.
const chaosShardSpec = `{"seed": 55, "workers": 2, "vehicles": [
	{"name": "shard", "engine": "slots", "pattern": "c1", "slots": 2000, "replicate": 4},
	{"name": "doomed", "engine": "slots", "pattern": "c5", "converge_within": 1, "replicate": 2}
]}`

// TestChaosFatalShardsNotRerun: a shard that fails is a pure function
// of its seed, so the daemon runs every shard exactly once. The job
// still finishes, its report counts the failures, and its stream shows
// one start per shard.
func TestChaosFatalShardsNotRerun(t *testing.T) {
	_, base := chaosServer(t, Config{})
	c := api.NewClient(base)
	ctx := context.Background()
	sub, err := c.Submit(ctx, []byte(chaosShardSpec))
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Wait(ctx, sub.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != api.StateDone || st.Error == "" {
		t.Fatalf("job with failing shards: %+v, want done with a first-error message", st)
	}
	env, err := c.Report(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if env.Report.Failed != 2 || env.Report.Completed != 4 {
		t.Errorf("report counts failed=%d completed=%d, want 2/4",
			env.Report.Failed, env.Report.Completed)
	}
	starts := map[int]int{}
	last, err := c.Stream(ctx, sub.ID, func(line api.StreamLine) error {
		if line.Type == api.StreamEvent && line.Event.Kind == obs.KindJobStart {
			starts[line.Event.Job]++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if last.Dropped != 0 {
		t.Fatalf("stream dropped %d events; cannot count starts", last.Dropped)
	}
	for idx := 0; idx < 6; idx++ {
		if starts[idx] != 1 {
			t.Errorf("shard %d started %d times, want exactly 1", idx, starts[idx])
		}
	}
	if len(starts) != 6 {
		t.Errorf("stream started shards %v, want indices 0..5", starts)
	}
}

// ---------------------------------------------------------------------
// Scenario: job deadline
// ---------------------------------------------------------------------

// TestChaosJobDeadline: a job that outlives Config.JobDeadline fails
// with an explicit deadline message instead of running forever, and
// the overrun is counted.
func TestChaosJobDeadline(t *testing.T) {
	slow := `{"seed": 9, "workers": 1, "vehicles": [
		{"name": "slow", "engine": "slots", "pattern": "c2", "slots": 100000, "replicate": 12, "faults": {"feedback": {"loss_prob": 0.001}}}
	]}`
	_, base := chaosServer(t, Config{JobDeadline: 60 * time.Millisecond})
	c := api.NewClient(base)
	ctx := context.Background()
	sub, err := c.Submit(ctx, []byte(slow))
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Wait(ctx, sub.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != api.StateFailed || !strings.Contains(st.Error, "deadline") {
		t.Fatalf("deadline overrun reported as %+v", st)
	}
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Counters["jobs_deadline_exceeded"] != 1 {
		t.Errorf("deadline counter = %d, want 1", h.Counters["jobs_deadline_exceeded"])
	}
}

// ---------------------------------------------------------------------
// Scenario: submit idempotency under client retries
// ---------------------------------------------------------------------

// TestChaosSubmitDedupe: a client that retries a submit (its ack was
// lost in flight) must not double-enqueue the spec — the daemon
// returns the in-flight job instead of a duplicate.
func TestChaosSubmitDedupe(t *testing.T) {
	_, base := chaosServer(t, Config{})
	c := api.NewClient(base)
	ctx := context.Background()
	slow := `{"seed": 31, "workers": 1, "vehicles": [
		{"name": "dup", "engine": "slots", "pattern": "c2", "slots": 60000, "replicate": 6, "faults": {"feedback": {"loss_prob": 0.001}}}
	]}`
	first, err := c.Submit(ctx, []byte(slow))
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.Submit(ctx, []byte(slow))
	if err != nil {
		t.Fatal(err)
	}
	if second.ID != first.ID {
		t.Errorf("retried submit enqueued a duplicate: %s then %s", first.ID, second.ID)
	}
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Counters["submit_deduped"] != 1 {
		t.Errorf("submit_deduped = %d, want 1", h.Counters["submit_deduped"])
	}
	if st, err := c.Wait(ctx, first.ID, 10*time.Millisecond); err != nil || st.State != api.StateDone {
		t.Fatalf("deduped job did not finish: %v / %+v", err, st)
	}
}
