// Package fleetd promotes the batch fleet engine (internal/fleet,
// surfaced as arachnet.Fleet.Run) to a long-running simulation service:
// an HTTP/JSONL daemon with a bounded job queue, streaming progress,
// a (spec, seed) spec index that answers resubmits, and checkpointed
// resume.
//
// Design contract, inherited from the engine: a fleet run is a pure
// function of its spec and master seed. The daemon exploits this
// everywhere — a resubmit of a finished spec is answered by the job
// that ran it, whose fingerprint is bit-identical to a fresh run's, and
// a daemon killed mid-sweep restarts, preloads the checkpointed shards,
// and finishes with the same fingerprint an uninterrupted run would
// have produced.
//
// Admission control: the queue is bounded. A full queue answers 429
// with Retry-After instead of buffering unboundedly, so overload is
// explicit backpressure rather than memory growth. A draining daemon
// (SIGTERM) answers 503 and checkpoints in-flight work before exit.
//
// Failure model (see DESIGN.md §9): checkpoints are crash-safe
// (fsync + rename + CRC, corrupt files quarantined); each shard runs
// once, since it is a pure function of its seed and a rerun could not
// change its outcome; each job can carry a deadline; a job is admitted
// only once its queued checkpoint is durable; and an unwritable
// checkpoint directory puts the daemon in degraded mode — finished
// specs and health keep serving, new specs get 503, and the next
// successful checkpoint write (every attempt, a new spec's admission
// write included, doubles as the recovery probe) restores normal
// service.
package fleetd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/arachnet"
	"repro/internal/fleet"
	"repro/internal/fleetd/api"
	"repro/internal/obs"
)

const (
	// retryAfter is the backoff suggested on 429.
	retryAfter = time.Second
	// streamBuffer is the per-job retained event window for /stream.
	// Reconnecting clients whose offset fell behind the window see the
	// gap as a drop count.
	streamBuffer = 1024
	// maxSpecBytes bounds a submitted spec; a larger body gets 413.
	maxSpecBytes = 8 << 20
)

// Config parameterizes a daemon.
type Config struct {
	// QueueDepth bounds the admission queue (jobs accepted but not yet
	// running); <= 0 means the default 64.
	QueueDepth int
	// Runners is the number of concurrent fleet runs; <= 0 means 1.
	// Each run additionally shards across its own pool workers.
	Runners int
	// WorkerCap caps the per-job pool worker count regardless of what
	// the spec asks for; 0 leaves the spec (or GOMAXPROCS) in charge.
	WorkerCap int
	// CheckpointDir persists job checkpoints for resume-after-restart;
	// empty disables checkpointing.
	CheckpointDir string
	// CheckpointEvery is the snapshot interval for running jobs;
	// <= 0 means the default 2s. The drain path always writes a final
	// snapshot regardless.
	CheckpointEvery time.Duration
	// JobDeadline bounds each job's wall-clock run; a job that exceeds
	// it fails with a deadline error (its shards are classified
	// timed-out). 0 means no deadline.
	JobDeadline time.Duration
	// FS is the filesystem the checkpoint store writes through; nil
	// means the real disk. The chaos harness injects faults here.
	FS FS
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

// withDefaults resolves the documented zero-value defaults.
func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Runners <= 0 {
		c.Runners = 1
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 2 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// job is one submitted fleet spec moving through the daemon.
type job struct {
	id    string
	spec  json.RawMessage // canonical form (CanonicalSpec)
	key   string          // spec-index key
	total int             // per-vehicle job count: compiled, or the restored report's
	log   *eventLog

	mu          sync.Mutex
	state       string
	resumed     int
	preloaded   []fleet.JobOutcome
	specs       []fleet.JobSpec // compiled at admission or restart; dropped by end
	poolCfg     fleet.Config    // the pool's Workers (WorkerCap applied), Seed and JobTimeout
	pool        *fleet.Pool
	cancel      context.CancelFunc
	fingerprint string
	report      *fleet.Report
	errMsg      string
	done        chan struct{} // closed when the job reaches a terminal state (or is interrupted by drain)
}

// end is the job's one terminal transition; a drain interruption also
// ends here, back in queued, to resume on restart. It applies only
// while the job is in state from and has not ended, and reports
// whether it did, so a cancel that loses the race to a runner's pickup
// changes nothing. It drops the compiled specs, the pool and the
// cancel func, and releases the job's streamers and waiters.
func (j *job) end(from, state, fingerprint string, rep *fleet.Report, errMsg string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	select {
	case <-j.done:
		return false
	default:
	}
	if j.state != from {
		return false
	}
	j.state, j.fingerprint, j.report, j.errMsg = state, fingerprint, rep, errMsg
	j.specs, j.pool, j.cancel = nil, nil, nil
	j.log.Close()
	close(j.done)
	return true
}

// status snapshots the job's API view.
func (j *job) status() api.StatusResponse {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := api.StatusResponse{
		ID:          j.id,
		State:       j.state,
		Total:       j.total,
		Resumed:     j.resumed,
		Fingerprint: j.fingerprint,
		Error:       j.errMsg,
	}
	switch {
	case j.state == api.StateDone:
		st.Done = j.total
	case j.pool != nil:
		st.Done = j.pool.Done()
	default:
		st.Done = len(j.preloaded)
	}
	return st
}

// Server is the fleetd daemon: construct with New, expose Handler()
// over any listener, Start() the runners, and Drain() on shutdown.
type Server struct {
	cfg     Config
	store   *CheckpointStore
	mux     *http.ServeMux
	queue   chan *job
	metrics *obs.Metrics

	mu   sync.Mutex
	jobs map[string]*job
	// byKey is the spec index: the job that answers each spec key. Its
	// state decides what a submit gets: done is a hit (unless a shard
	// did not end deterministically), queued or running is a dedupe,
	// anything else is a miss that takes over the key. Lock order is
	// s.mu before j.mu.
	byKey    map[string]*job
	order    []string
	nextID   int
	draining bool
	running  int
	// degraded is health state, kept by noteCheckpoint: set by a failed
	// checkpoint write, cleared by the next one that succeeds.
	degraded       bool
	degradedReason string

	runCtx    context.Context
	runCancel context.CancelFunc
	wg        sync.WaitGroup
	resume    []*job // interrupted jobs recovered from checkpoints, enqueued by Start
}

// New builds a daemon, loading any checkpoints found in
// cfg.CheckpointDir: done jobs re-register with their reports (and
// answer their specs again); queued or running jobs are re-queued
// with their completed shards preloaded, so Start finishes them
// without recomputation. Corrupt checkpoint files are quarantined as
// <id>.corrupt and reported, never fatal.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	store, err := NewCheckpointStoreFS(cfg.CheckpointDir, cfg.FS)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:       cfg,
		store:     store,
		queue:     make(chan *job, cfg.QueueDepth),
		metrics:   obs.NewMetrics(),
		jobs:      make(map[string]*job),
		byKey:     make(map[string]*job),
		runCtx:    ctx,
		runCancel: cancel,
	}
	s.buildMux()
	if err := s.loadCheckpoints(); err != nil {
		return nil, err
	}
	return s, nil
}

// buildMux installs the API routes; every handler goes through wrap,
// the recover middleware (a handler panic answers 500 instead of
// taking the daemon down).
func (s *Server) buildMux() {
	s.mux = http.NewServeMux()
	s.mux.Handle("POST /v1/jobs", s.wrap(s.handleSubmit))
	s.mux.Handle("GET /v1/jobs", s.wrap(s.handleList))
	s.mux.Handle("GET /v1/jobs/{id}", s.wrap(s.handleStatus))
	s.mux.Handle("DELETE /v1/jobs/{id}", s.wrap(s.handleCancel))
	s.mux.Handle("GET /v1/jobs/{id}/stream", s.wrap(s.handleStream))
	s.mux.Handle("GET /v1/jobs/{id}/report", s.wrap(s.handleReport))
	s.mux.Handle("GET /v1/healthz", s.wrap(s.handleHealth))
}

// Handler returns the daemon's HTTP interface.
func (s *Server) Handler() http.Handler { return s.mux }

// wrap is the recover middleware every route is registered through.
func (s *Server) wrap(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.cfg.Logf("fleetd: panic in %s %s: %v", r.Method, r.URL.Path, rec)
				writeError(w, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", rec))
			}
		}()
		h(w, r)
	}
}

// Start launches the runner pool and re-queues checkpointed jobs.
func (s *Server) Start() {
	for i := 0; i < s.cfg.Runners; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.runLoop()
		}()
	}
	// Interrupted jobs recovered from checkpoints go back on the queue
	// in ID (= original submission) order; the send blocks if the queue
	// is smaller than the backlog, so feed it from a goroutine.
	resume := s.resume
	s.resume = nil
	if len(resume) > 0 {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for _, j := range resume {
				select {
				case s.queue <- j:
				case <-s.runCtx.Done():
					return
				}
			}
		}()
	}
}

// Drain gracefully shuts the daemon down: new submissions are refused
// (503), running jobs are interrupted and their completed shards
// checkpointed, queued jobs keep the checkpoints written at admission,
// and the runners exit. It returns once all runners have stopped or
// ctx expires.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.runCancel()
	done := make(chan struct{})
	// Forwards the WaitGroup join onto a channel so the drain can race it
	// against ctx; if ctx wins, the waiter exits when the runners do.
	//lint:allow goroutine-hygiene wait-forwarder exits when the joined runners finish
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("fleetd: drain timed out: %w", ctx.Err())
	}
}

// checkpointWrite routes every checkpoint write through the degraded
// mode accounting: a failure enters degraded mode, a success leaves
// it. Every attempt therefore doubles as the recovery probe — no
// separate probing machinery exists.
func (s *Server) checkpointWrite(rec Record) error {
	if s.store == nil {
		return nil
	}
	err := s.store.Write(rec)
	s.noteCheckpoint(err)
	return err
}

// noteCheckpoint folds one checkpoint write outcome into the degraded
// state machine and metrics.
func (s *Server) noteCheckpoint(err error) {
	if err == nil {
		s.metrics.Inc("ckpt_writes")
		s.mu.Lock()
		if s.degraded {
			s.degraded = false
			s.degradedReason = ""
			s.mu.Unlock()
			s.metrics.Inc("degraded_exits")
			s.cfg.Logf("fleetd: checkpoint dir writable again; leaving degraded mode")
			return
		}
		s.mu.Unlock()
		return
	}
	s.metrics.Inc("ckpt_write_errors")
	s.mu.Lock()
	if !s.degraded {
		s.degraded = true
		s.degradedReason = err.Error()
		s.mu.Unlock()
		s.metrics.Inc("degraded_entries")
		s.cfg.Logf("fleetd: entering degraded mode: %v", err)
		return
	}
	s.mu.Unlock()
}

// loadCheckpoints restores jobs persisted by a previous process.
func (s *Server) loadCheckpoints() error {
	recs, report := s.store.Load()
	if !report.Clean() {
		s.metrics.Add("ckpt_quarantined", uint64(len(report.Quarantined)))
		s.cfg.Logf("fleetd: checkpoint recovery: %s", report)
	}
	for _, rec := range recs {
		key, err := CacheKey(rec.Spec)
		if err != nil {
			s.cfg.Logf("fleetd: checkpoint %s: %v", rec.ID, err)
			continue
		}
		j := newJob(rec.Spec, key)
		j.id = rec.ID
		switch rec.State {
		case StateDoneCkpt:
			// A done record needs no compile: its report holds one
			// outcome per compiled job.
			var rep fleet.Report
			if err := json.Unmarshal(rec.Report, &rep); err != nil {
				s.cfg.Logf("fleetd: checkpoint %s: report: %v", rec.ID, err)
				continue
			}
			j.total = len(rep.Jobs)
			j.end(api.StateQueued, api.StateDone, rec.Fingerprint, &rep, rec.Error)
		case StateQueuedCkpt, StateRunningCkpt:
			if err := s.compile(j); err != nil {
				s.cfg.Logf("fleetd: checkpoint %s: invalid spec: %v", rec.ID, err)
				continue
			}
			j.preloaded = rec.Outcomes
			j.resumed = len(rec.Outcomes)
			s.resume = append(s.resume, j)
		default:
			s.cfg.Logf("fleetd: checkpoint %s: unknown state %q", rec.ID, rec.State)
			continue
		}
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		// A done record answers its spec even where a resumed record of
		// the same spec is indexed; only New touches the jobs so far.
		if cur := s.byKey[key]; cur == nil || cur.state != api.StateDone {
			s.byKey[key] = j
		}
		if n := idNumber(rec.ID); n >= s.nextID {
			s.nextID = n + 1
		}
	}
	if len(s.resume) > 0 {
		s.cfg.Logf("fleetd: resuming %d interrupted job(s) from %s", len(s.resume), s.cfg.CheckpointDir)
	}
	return nil
}

// idNumber extracts the numeric suffix of a job ID (-1 if malformed).
func idNumber(id string) int {
	const prefix = "job-"
	if !strings.HasPrefix(id, prefix) {
		return -1
	}
	n, err := strconv.Atoi(id[len(prefix):])
	if err != nil {
		return -1
	}
	return n
}

// compile parses and compiles j's canonical spec into its pool input:
// the compiled specs, their count and the pool settings. It is the
// daemon's one Fleet.Jobs call, made for an admission miss or a
// resumed checkpoint; a hit or a dedupe compiles nothing.
func (s *Server) compile(j *job) error {
	f, err := arachnet.UnmarshalFleetJSON(j.spec)
	if err != nil {
		return err
	}
	specs, err := f.Jobs()
	if err != nil {
		return err
	}
	if s.cfg.WorkerCap > 0 && (f.Workers <= 0 || f.Workers > s.cfg.WorkerCap) {
		f.Workers = s.cfg.WorkerCap
	}
	j.specs, j.total = specs, len(specs)
	j.poolCfg = fleet.Config{Workers: f.Workers, Seed: f.Seed, JobTimeout: f.JobTimeout}
	return nil
}

// runLoop is one runner: pull jobs until drain.
func (s *Server) runLoop() {
	for {
		select {
		case <-s.runCtx.Done():
			return
		case j := <-s.queue:
			s.runJob(j)
		}
	}
}

// runJob executes one fleet spec through the pool, checkpointing as it
// goes. It never panics the runner: spec errors fail the job, a
// deadline overrun fails the job, and a drain interruption leaves a
// resumable checkpoint behind.
func (s *Server) runJob(j *job) {
	j.mu.Lock()
	if j.state != api.StateQueued {
		j.mu.Unlock() // cancelled while queued
		return
	}
	base, cancel := context.WithCancel(s.runCtx)
	jctx := base
	dcancel := context.CancelFunc(func() {})
	if s.cfg.JobDeadline > 0 {
		jctx, dcancel = context.WithTimeout(base, s.cfg.JobDeadline)
	}
	j.state = api.StateRunning
	j.cancel = cancel
	pre, specs, poolCfg := j.preloaded, j.specs, j.poolCfg
	j.mu.Unlock()
	defer dcancel()
	defer cancel()

	s.mu.Lock()
	s.running++
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.running--
		s.mu.Unlock()
	}()

	// buildPool assembles the pool over the compiled shards, preloading
	// the checkpointed outcomes.
	buildPool := func(pre []fleet.JobOutcome) (*fleet.Pool, error) {
		cfg := poolCfg
		cfg.Trace = obs.New(j.log)
		pool, err := fleet.NewPool(cfg, specs)
		if err != nil {
			return nil, err
		}
		if len(pre) > 0 {
			if err := pool.Preload(pre); err != nil {
				return nil, err
			}
		}
		return pool, nil
	}

	pool, err := buildPool(pre)
	if err != nil && len(pre) > 0 {
		// A checkpoint that no longer matches the spec is discarded:
		// recompute everything rather than corrupt the report.
		s.cfg.Logf("fleetd: %s: discarding checkpoint: %v", j.id, err)
		j.mu.Lock()
		j.resumed = 0
		j.mu.Unlock()
		pool, err = buildPool(nil)
	}
	if err != nil {
		s.discard(j, api.StateFailed, err.Error())
		return
	}
	j.mu.Lock()
	j.pool = pool
	j.mu.Unlock()

	// flush checkpoints the pool's finished shards as a running record,
	// unless no shard has finished since the last write. The ticker
	// calls it while the pool runs, and the drain path once after.
	written := pool.Done()
	flush := func() error {
		n := pool.Done()
		if s.store == nil || n == written {
			return nil
		}
		written = n
		return s.checkpointWrite(Record{ID: j.id, State: StateRunningCkpt, Spec: j.spec, Outcomes: pool.Finished()})
	}
	stopFlush := make(chan struct{})
	var fwg sync.WaitGroup
	if s.store != nil {
		fwg.Add(1)
		go func() {
			defer fwg.Done()
			t := time.NewTicker(s.cfg.CheckpointEvery)
			defer t.Stop()
			for {
				select {
				case <-stopFlush:
					return
				case <-t.C:
					if err := flush(); err != nil {
						s.cfg.Logf("fleetd: %s: checkpoint: %v", j.id, err)
					}
				}
			}
		}()
	}
	rep, runErr := pool.Run(jctx)
	close(stopFlush)
	fwg.Wait()

	if runErr != nil {
		// Interrupted. Under drain this is a checkpoint-and-exit; a
		// deadline overrun fails the job; a client cancel discards the
		// job and its checkpoint.
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		switch {
		case draining:
			if err := flush(); err != nil {
				s.cfg.Logf("fleetd: %s: final checkpoint: %v", j.id, err)
			}
			s.finalize(j, api.StateRunning, api.StateQueued, "", nil, "interrupted: daemon draining; resumes on restart")
		case errors.Is(runErr, context.DeadlineExceeded):
			s.metrics.Inc("jobs_deadline_exceeded")
			s.discard(j, api.StateFailed, fmt.Sprintf("job deadline %v exceeded", s.cfg.JobDeadline))
		default:
			s.discard(j, api.StateCancelled, "cancelled")
		}
		return
	}

	fp := rep.Fingerprint()
	errMsg := ""
	if !rep.Ok() {
		errMsg = rep.FirstError()
	}
	if s.store != nil {
		repJSON, err := json.Marshal(rep)
		if err != nil {
			s.cfg.Logf("fleetd: %s: marshal report: %v", j.id, err)
		} else if err := s.checkpointWrite(Record{
			ID: j.id, State: StateDoneCkpt, Spec: j.spec,
			Fingerprint: fp, Report: repJSON, Error: errMsg,
		}); err != nil {
			s.cfg.Logf("fleetd: %s: done checkpoint: %v", j.id, err)
		}
	}
	s.finalize(j, api.StateRunning, api.StateDone, fp, rep, errMsg)
}

// finalize ends j through job.end and keeps the daemon's books: the
// counters and the log line. The spec index needs no update, since a
// job's state decides what its entry answers. It reports false,
// changing nothing, if j was no longer in state from.
func (s *Server) finalize(j *job, from, state, fingerprint string, rep *fleet.Report, errMsg string) bool {
	if !j.end(from, state, fingerprint, rep, errMsg) {
		return false
	}
	switch state {
	case api.StateDone:
		s.metrics.Inc("jobs_done")
	case api.StateFailed:
		s.metrics.Inc("jobs_failed")
	case api.StateCancelled:
		s.metrics.Inc("jobs_cancelled")
	}
	s.cfg.Logf("fleetd: %s: %s%s", j.id, state, suffixIf(errMsg))
	return true
}

// discard ends a running job whose work is thrown away (a failure, a
// deadline or a cancel). Its checkpoint goes first, so no restart
// resumes it.
func (s *Server) discard(j *job, state, errMsg string) {
	s.removeCheckpoint(j)
	s.finalize(j, api.StateRunning, state, "", nil, errMsg)
}

// removeCheckpoint deletes a job's checkpoint.
func (s *Server) removeCheckpoint(j *job) {
	if err := s.store.Remove(j.id); err != nil {
		s.cfg.Logf("fleetd: %s: remove checkpoint: %v", j.id, err)
	}
}

// suffixIf renders an optional log detail.
func suffixIf(msg string) string {
	if msg == "" {
		return ""
	}
	return ": " + msg
}

// writeJSON emits a JSON response body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError emits the standard error body.
func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, api.ErrorResponse{Error: msg})
}

// handleSubmit admits one fleet spec: canonicalize, answer from the
// spec index when it holds a done job (a hit) or a queued or running
// one (a dedupe, so a client retrying a submit never double-enqueues),
// and only then compile it, write its queued checkpoint and enqueue it
// with backpressure.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeError(w, http.StatusServiceUnavailable, "daemon is draining; resubmit after restart")
		return
	}
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("spec larger than %d bytes", tooLarge.Limit))
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("read body: %v", err))
		return
	}
	// The job keeps, runs from and checkpoints the canonical form, so
	// whitespace padding costs nothing past this point, and the index
	// key is the hash of the very bytes the job runs from.
	spec, err := CanonicalSpec(raw)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	key := canonicalKey(spec)

	s.mu.Lock()
	prev := s.indexed(key)
	s.mu.Unlock()
	if prev != nil {
		s.answer(w, prev)
		return
	}
	j := newJob(spec, key)
	if err := s.compile(j); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.mu.Lock()
	j.id = fmt.Sprintf("job-%06d", s.nextID)
	s.nextID++
	s.mu.Unlock()

	// The queued record is durable before the job is visible, so a
	// daemon killed with the job still queued re-runs it after restart,
	// and no runner or cancel can reach the job before it exists. New
	// work that cannot be checkpointed is refused rather than silently
	// losing its durability guarantee; the write is also the degraded
	// mode's recovery probe.
	if err := s.checkpointWrite(Record{ID: j.id, State: StateQueuedCkpt, Spec: j.spec}); err != nil {
		writeError(w, http.StatusServiceUnavailable,
			fmt.Sprintf("daemon degraded (checkpoint dir unwritable: %v); only finished specs are served", err))
		return
	}

	// Re-check the index, enqueue and publish in one critical section:
	// of two concurrent submits of one new spec, exactly one is queued
	// and the other answers from it. A full queue publishes nothing.
	s.mu.Lock()
	prev = s.indexed(key)
	queued := false
	if prev == nil {
		select {
		case s.queue <- j:
			queued = true
			s.jobs[j.id] = j
			s.order = append(s.order, j.id)
			s.byKey[key] = j
		default:
		}
	}
	s.mu.Unlock()
	if queued {
		writeJSON(w, http.StatusAccepted, api.SubmitResponse{ID: j.id, State: api.StateQueued, Jobs: j.total})
		return
	}
	s.removeCheckpoint(j)
	if prev != nil {
		s.answer(w, prev)
		return
	}
	// Backpressure: 429 + Retry-After instead of unbounded buffering.
	w.Header().Set("Retry-After", strconv.Itoa(int(retryAfter/time.Second)))
	writeError(w, http.StatusTooManyRequests,
		fmt.Sprintf("job queue full (%d deep); retry later", s.cfg.QueueDepth))
}

// indexed returns the job that answers a submit of key: a queued or
// running one (a dedupe) or one that replays (a hit). Nil is a miss.
// The caller holds s.mu.
func (s *Server) indexed(key string) *job {
	j := s.byKey[key]
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == api.StateQueued || j.state == api.StateRunning || j.replays() {
		return j
	}
	return nil
}

// replays reports whether the job answers a resubmit of its spec with
// its own report: it is done, and every shard ended in a deterministic
// status. A shard cut by the spec's job timeout is a wall-clock
// artifact, so its spec runs again and the rerun takes over the key.
// The caller holds j.mu.
func (j *job) replays() bool {
	if j.state != api.StateDone {
		return false
	}
	for _, o := range j.report.Jobs {
		if !o.Status.Deterministic() {
			return false
		}
	}
	return true
}

// answer serves a submit from prev, the job the spec index holds for
// it. A queued or running prev is a dedupe: the retried submit gets
// that job back, so submission is idempotent under client retries. A
// done prev is a hit: the run is a pure function of (spec, seed), so
// prev itself is the answer, and its status, report and stream (error
// included) serve the hit. A hit registers, compiles and writes
// nothing, so it is served in degraded mode too.
func (s *Server) answer(w http.ResponseWriter, prev *job) {
	prev.mu.Lock()
	state, fp := prev.state, prev.fingerprint
	prev.mu.Unlock()
	if state != api.StateDone {
		s.metrics.Inc("submit_deduped")
		writeJSON(w, http.StatusAccepted, api.SubmitResponse{ID: prev.id, State: state, Jobs: prev.total})
		return
	}
	s.metrics.Inc("submit_cache_hits")
	writeJSON(w, http.StatusOK, api.SubmitResponse{
		ID: prev.id, State: api.StateDone, Cached: true,
		Fingerprint: fp, Jobs: prev.total,
	})
}

// newJob builds a queued job with no ID; the admission or the restored
// checkpoint assigns one.
func newJob(spec []byte, key string) *job {
	return &job{
		spec: spec, key: key, state: api.StateQueued,
		log: newEventLog(streamBuffer), done: make(chan struct{}),
	}
}

// lookup finds a job by the {id} path value; nil means the 404 was
// already written.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *job {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown job %q", id))
		return nil
	}
	return j
}

// handleList enumerates jobs in submission order.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	lr := api.ListResponse{Jobs: make([]api.StatusResponse, 0, len(jobs))}
	for _, j := range jobs {
		lr.Jobs = append(lr.Jobs, j.status())
	}
	writeJSON(w, http.StatusOK, lr)
}

// handleStatus reports one job's lifecycle view.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

// handleReport serves a finished job's full report.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	rep, fp, state := j.report, j.fingerprint, j.state
	j.mu.Unlock()
	if rep == nil {
		writeError(w, http.StatusConflict, fmt.Sprintf("job %s is %s; no report yet", j.id, state))
		return
	}
	writeJSON(w, http.StatusOK, api.ReportEnvelope{ID: j.id, Fingerprint: fp, Report: rep})
}

// handleCancel aborts a queued or running job.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	// A queued job ends here; the runner skips jobs no longer queued.
	if s.finalize(j, api.StateQueued, api.StateCancelled, "", nil, "cancelled") {
		s.removeCheckpoint(j)
		writeJSON(w, http.StatusOK, j.status())
		return
	}
	j.mu.Lock()
	state, cancel := j.state, j.cancel
	j.mu.Unlock()
	switch {
	case api.TerminalState(state):
		writeError(w, http.StatusConflict, fmt.Sprintf("job %s already %s", j.id, state))
	case cancel != nil:
		cancel()
		writeJSON(w, http.StatusOK, j.status())
	default:
		writeError(w, http.StatusConflict, fmt.Sprintf("job %s is %s and not cancellable", j.id, state))
	}
}

// handleStream serves the progress stream: an opening status line, one
// sequenced line per lifecycle event, and a closing done line carrying
// the fingerprint. Event lines carry their position in the job's event
// log, and ?after=<seq> resumes from that position — a client whose
// connection died reconnects and receives exactly the events it
// missed. An offset that has fallen behind the retained window reports
// the gap on the done line's drop count. The stream is JSONL, one
// api.StreamLine per line.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	var after uint64
	if v := r.URL.Query().Get("after"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("bad after offset %q", v))
			return
		}
		after = n
	}

	// JSONL is the only stream encoding. A format query other than
	// jsonl (a stale ?format=binary client, say) gets a 400 before any
	// stream bytes rather than NDJSON it would misparse.
	if format := r.URL.Query().Get("format"); format != "" && format != "jsonl" {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad stream format %q (only jsonl is served)", format))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)

	st := j.status()
	if err := enc.Encode(api.StreamLine{Type: api.StreamStatus, Status: &st}); err != nil {
		return
	}
	flusher.Flush()

	var dropped uint64
	for {
		evs, first, gap, closed, wait := j.log.since(after)
		dropped += gap
		after += gap
		for i := range evs {
			seq := first + uint64(i)
			if err := enc.Encode(api.StreamLine{Type: api.StreamEvent, Seq: seq, Event: &evs[i]}); err != nil {
				return
			}
			after = seq
		}
		if len(evs) > 0 {
			flusher.Flush()
		}
		if closed && len(evs) == 0 {
			st := j.status()
			_ = enc.Encode(api.StreamLine{
				Type: api.StreamDone, Seq: after, State: st.State,
				Fingerprint: st.Fingerprint, Error: st.Error,
				Dropped: dropped,
			})
			flusher.Flush()
			return
		}
		if len(evs) == 0 {
			select {
			case <-wait:
			case <-r.Context().Done():
				return
			}
		}
	}
}

// handleHealth reports liveness, pressure, degraded state, and the
// daemon's resilience counters.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := api.HealthResponse{
		OK:             !s.draining,
		Draining:       s.draining,
		Queued:         len(s.queue),
		Running:        s.running,
		QueueDepth:     s.cfg.QueueDepth,
		Degraded:       s.degraded,
		DegradedReason: s.degradedReason,
	}
	for _, j := range s.byKey {
		j.mu.Lock()
		if j.replays() {
			h.CacheEntries++
		}
		j.mu.Unlock()
	}
	s.mu.Unlock()
	h.Counters = s.metrics.Counters()
	h.CacheHits = h.Counters["submit_cache_hits"]
	writeJSON(w, http.StatusOK, h)
}
