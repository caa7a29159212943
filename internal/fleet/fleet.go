// Package fleet is the fleet-scale simulation orchestrator: a job
// queue plus a sharded worker pool that runs many independent
// simulations (one vehicle / network per job) across GOMAXPROCS
// workers.
//
// The design contract is determinism at scale: every job's seed is
// fixed at submission time (either explicitly or derived from the
// fleet seed and the job index, see DeriveSeed), and the final Report
// is assembled from the per-job outcomes in job-index order. Results
// are therefore bit-identical regardless of worker count or goroutine
// scheduling — the property the determinism regression tests pin.
//
// Failure isolation: a job that panics, returns an error, or exceeds
// its timeout is recorded in the report (StatusPanicked / StatusFailed
// / StatusTimedOut) and never poisons sibling jobs or the pool.
// Cancelling the run context stops feeding the queue; jobs that never
// started are reported as StatusCancelled, and the partial report is
// still returned.
package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Result is what one job hands back to the aggregation layer.
type Result struct {
	// Metrics are scalar samples (one value per job) that the report
	// aggregates into fleet-wide percentile distributions, e.g. a
	// convergence time or a collision ratio.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Counters are additive totals summed fleet-wide, e.g. decoded
	// packets.
	Counters map[string]uint64 `json:"counters,omitempty"`
}

// JobInfo identifies one job to its run function and in its trace
// events.
type JobInfo struct {
	// Index is the job's position in the submission order; it is the
	// aggregation key that makes reports scheduling-independent.
	Index int    `json:"index"`
	Name  string `json:"name"`
	// Seed is the job's resolved random seed.
	Seed uint64 `json:"seed"`
}

// JobFunc runs one simulation. Implementations should poll ctx at
// convenient boundaries (every few hundred slots or simulated seconds)
// so timeouts and cancellation take effect: the pool runs each job on
// its worker goroutine and cannot stop one that ignores ctx. Such a
// job holds its worker until it returns; if it overran its timeout, it
// is then reported as timed out.
type JobFunc func(ctx context.Context, job JobInfo) (Result, error)

// JobSpec describes one queued job.
type JobSpec struct {
	Name string
	// Seed is used verbatim when HasSeed is set; otherwise the pool
	// derives DeriveSeed(Config.Seed, index).
	Seed    uint64
	HasSeed bool
	Run     JobFunc
}

// Config parameterizes a pool.
type Config struct {
	// Workers is the shard count; <= 0 means GOMAXPROCS.
	Workers int
	// Seed is the fleet master seed that per-job seeds derive from.
	Seed uint64
	// JobTimeout bounds each job's wall-clock run; 0 means no limit.
	JobTimeout time.Duration
	// Trace receives each job's job_start and job_finish events; nil
	// means none. The tracer serializes the workers' concurrent emits.
	Trace *obs.Tracer
}

// Status classifies a job outcome.
type Status int

const (
	// StatusPending is the zero value: the job has not finished.
	StatusPending Status = iota
	StatusOK
	StatusFailed
	StatusPanicked
	StatusTimedOut
	StatusCancelled
)

// String names the status for reports and traces.
func (s Status) String() string {
	switch s {
	case StatusPending:
		return "pending"
	case StatusOK:
		return "ok"
	case StatusFailed:
		return "failed"
	case StatusPanicked:
		return "panicked"
	case StatusTimedOut:
		return "timed_out"
	case StatusCancelled:
		return "cancelled"
	}
	return fmt.Sprintf("status(%d)", int(s))
}

// Deterministic reports whether the status is one a rerun of the job
// reproduces: ok and failed, the outcomes of a job that ran to its end
// and so a pure function of its seed. Timed-out and cancelled outcomes
// depend on wall-clock scheduling, a panicked one is not kept as a
// result, and pending is no outcome yet. It is the one rule for which
// outcomes a checkpoint keeps and which reports answer a resubmit.
func (s Status) Deterministic() bool { return s == StatusOK || s == StatusFailed }

// MarshalJSON renders the status as its name.
func (s Status) MarshalJSON() ([]byte, error) { return []byte(`"` + s.String() + `"`), nil }

// UnmarshalJSON parses a status name back into its value, so reports
// and dumped checkpoints round-trip through JSON (clients decode
// reports over the wire).
func (s *Status) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return fmt.Errorf("fleet: parse status: %w", err)
	}
	for cand := StatusPending; cand <= StatusCancelled; cand++ {
		if cand.String() == name {
			*s = cand
			return nil
		}
	}
	return fmt.Errorf("fleet: unknown status %q", name)
}

// JobOutcome is one job's full record in the report.
type JobOutcome struct {
	JobInfo
	Status Status `json:"status"`
	Result Result `json:"result"`
	// Err is the failure description (error text or panic value);
	// empty on success.
	Err string `json:"error,omitempty"`
	// Elapsed is wall-clock job time. It is diagnostic only and is
	// excluded from the deterministic fingerprint.
	Elapsed time.Duration `json:"elapsed_ns"`
}

// Report is the aggregated outcome of a fleet run, assembled in
// job-index order so it is independent of scheduling.
type Report struct {
	Workers int `json:"workers"`
	// Jobs holds every outcome, indexed by submission order.
	Jobs []JobOutcome `json:"jobs"`

	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	Panicked  int `json:"panicked"`
	TimedOut  int `json:"timed_out"`
	Cancelled int `json:"cancelled"`

	// Metrics are per-metric distributions over successful jobs.
	Metrics map[string]Distribution `json:"metrics"`
	// Counters are fleet-wide sums over successful jobs.
	Counters map[string]uint64 `json:"counters"`
	// Latency is the distribution of per-job wall times (seconds);
	// diagnostic only, excluded from the fingerprint.
	Latency Distribution `json:"latency_s"`
	// Wall is the whole run's wall-clock time.
	Wall time.Duration `json:"wall_ns"`
}

// Ok reports whether every job completed successfully.
func (r *Report) Ok() bool {
	return r.Failed == 0 && r.Panicked == 0 && r.TimedOut == 0 && r.Cancelled == 0
}

// FirstError returns the first non-OK job's description, or "".
func (r *Report) FirstError() string {
	for _, j := range r.Jobs {
		if j.Status != StatusOK {
			return fmt.Sprintf("job %d (%s): %s: %s", j.Index, j.Name, j.Status, j.Err)
		}
	}
	return ""
}

// Pool is a reusable fleet runner over one fixed job list: construct
// with NewPool, start with Run, and poll Done and Finished from other
// goroutines for live progress. Preload (before Run) marks jobs from a
// previous, interrupted run as already complete, so checkpointed sweeps
// resume without recomputing finished shards.
type Pool struct {
	cfg   Config
	specs []JobSpec
	// mu guards outcomes against Finished while workers write them.
	mu        sync.Mutex
	outcomes  []JobOutcome
	done      atomic.Int64
	preloaded int
	started   bool
}

// NewPool validates the configuration and builds a pool over the jobs.
func NewPool(cfg Config, specs []JobSpec) (*Pool, error) {
	if len(specs) == 0 {
		return nil, errors.New("fleet: no jobs")
	}
	for i, s := range specs {
		if s.Run == nil {
			return nil, fmt.Errorf("fleet: job %d (%q) has no run function", i, s.Name)
		}
	}
	return &Pool{
		cfg:      cfg,
		specs:    specs,
		outcomes: make([]JobOutcome, len(specs)),
	}, nil
}

// Preload records outcomes recovered from a checkpoint as already
// complete: Run skips their indices and the final report contains them
// verbatim, so a resumed sweep's fingerprint matches an uninterrupted
// run (every job is a pure function of its seed, and wall-clock fields
// are excluded from the fingerprint).
//
// Only deterministic statuses (Status.Deterministic) are accepted;
// cancelled or timed-out shards must be recomputed because their
// outcomes depend on wall-clock scheduling. Each outcome
// is validated against the pool's job list (index range, name, and
// resolved seed), so a checkpoint taken under a different spec is
// rejected instead of silently corrupting the report.
func (p *Pool) Preload(outcomes []JobOutcome) error {
	if p.started {
		return errors.New("fleet: Preload after Run")
	}
	for _, o := range outcomes {
		if o.Index < 0 || o.Index >= len(p.specs) {
			return fmt.Errorf("fleet: preload outcome index %d out of range [0,%d)", o.Index, len(p.specs))
		}
		if !o.Status.Deterministic() {
			return fmt.Errorf("fleet: preload job %d has non-deterministic status %s", o.Index, o.Status)
		}
		want := p.jobInfo(o.Index)
		if o.Seed != want.Seed || o.Name != want.Name {
			return fmt.Errorf("fleet: preload job %d is %q seed %d, but the spec resolves %q seed %d (checkpoint from a different spec?)",
				o.Index, o.Name, o.Seed, want.Name, want.Seed)
		}
		if p.outcomes[o.Index].Status != StatusPending {
			return fmt.Errorf("fleet: preload job %d already loaded", o.Index)
		}
		p.record(o)
		p.preloaded++
	}
	return nil
}

// Run executes every job and returns the aggregated report. The report
// is non-nil even when ctx is cancelled mid-run (the error is then
// ctx's error and unfinished jobs are marked cancelled).
func (p *Pool) Run(ctx context.Context) (*Report, error) {
	p.started = true
	workers := p.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if rest := len(p.specs) - p.preloaded; workers > rest && rest > 0 {
		workers = rest
	}
	if workers > len(p.specs) {
		workers = len(p.specs)
	}
	start := time.Now() //lint:allow determinism-taint wall-clock fleet timing; excluded from the deterministic fingerprint

	queue := make(chan int)
	go func() {
		defer close(queue)
		for i := range p.specs {
			if p.outcomes[i].Status != StatusPending {
				continue // preloaded from a checkpoint
			}
			select {
			case queue <- i:
			case <-ctx.Done():
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range queue {
				out := p.runJob(ctx, idx)
				p.record(out)
				if p.cfg.Trace != nil {
					p.cfg.Trace.Emit(finishEvent(out))
				}
			}
		}()
	}
	wg.Wait()

	// Jobs the feeder never handed out (cancellation or an expired
	// run deadline) are pending in the outcome table; record them so
	// the report stays complete, classified by which way the parent
	// context stopped.
	if stop := ctx.Err(); stop != nil {
		for i := range p.outcomes {
			if p.outcomes[i].Status == StatusPending {
				p.record(JobOutcome{
					JobInfo: p.jobInfo(i),
					Status:  parentStopStatus(stop),
					Err:     stop.Error(),
				})
			}
		}
	}

	rep := p.buildReport(workers, time.Since(start)) //lint:allow determinism-taint wall-clock fleet timing; excluded from the deterministic fingerprint
	return rep, ctx.Err()
}

// record stores a terminal outcome in the table and counts it done.
func (p *Pool) record(o JobOutcome) {
	p.mu.Lock()
	p.outcomes[o.Index] = o
	p.mu.Unlock()
	p.done.Add(1)
}

// finishEvent renders a finished job as its job_finish event. Value
// carries the wall-clock elapsed seconds; Detail is the status, with
// the error text appended for failed jobs.
func finishEvent(o JobOutcome) obs.Event {
	ev := obs.Event{
		Kind:   obs.KindJobFinish,
		Job:    o.Index,
		Name:   o.Name,
		Seed:   o.Seed,
		Value:  o.Elapsed.Seconds(),
		Detail: o.Status.String(),
	}
	if o.Err != "" {
		ev.Detail += ": " + o.Err
	}
	return ev
}

// jobInfo resolves a job's identity, deriving the seed when the spec
// does not pin one.
func (p *Pool) jobInfo(idx int) JobInfo {
	spec := p.specs[idx]
	info := JobInfo{Index: idx, Name: spec.Name, Seed: spec.Seed}
	if !spec.HasSeed {
		info.Seed = DeriveSeed(p.cfg.Seed, uint64(idx))
	}
	return info
}

// runJob executes one job inline on the worker goroutine, with panic
// recovery and, when Config.JobTimeout is set, a deadline on the job's
// context.
func (p *Pool) runJob(ctx context.Context, idx int) JobOutcome {
	info := p.jobInfo(idx)
	out := JobOutcome{JobInfo: info}
	if err := ctx.Err(); err != nil {
		out.Status = parentStopStatus(err)
		out.Err = err.Error()
		return out
	}
	if p.cfg.Trace != nil {
		p.cfg.Trace.Emit(obs.Event{Kind: obs.KindJobStart, Job: info.Index, Name: info.Name, Seed: info.Seed})
	}

	jctx := ctx
	if p.cfg.JobTimeout > 0 {
		var cancel context.CancelFunc
		jctx, cancel = context.WithTimeout(ctx, p.cfg.JobTimeout)
		defer cancel()
	}
	start := time.Now() //lint:allow determinism-taint per-job wall latency for operator reporting only
	res, err, panicked := p.callJob(jctx, idx, info)
	out.Elapsed = time.Since(start) //lint:allow determinism-taint per-job wall latency for operator reporting only
	if p.cfg.JobTimeout > 0 && jctx.Err() != nil && ctx.Err() == nil {
		// The job ran past its own deadline, whatever it returned.
		out.Status = StatusTimedOut
		out.Err = fmt.Sprintf("job exceeded timeout %v", p.cfg.JobTimeout)
		return out
	}
	p.classify(&out, res, err, panicked)
	return out
}

// parentStopStatus classifies a run stopped by its parent context: an
// expired deadline is a timeout (the run-level budget ran out), an
// explicit cancel is a cancellation. Both are wall-clock artifacts a
// resumed pool must recompute.
func parentStopStatus(err error) Status {
	if errors.Is(err, context.DeadlineExceeded) {
		return StatusTimedOut
	}
	return StatusCancelled
}

// callJob invokes the job function with panic recovery.
//
//alloc:hot per-job dispatch; the recovery closure is the only deliberate escape
func (p *Pool) callJob(ctx context.Context, idx int, info JobInfo) (res Result, err error, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			res = Result{}
			err = fmt.Errorf("panic: %v", r)
			panicked = true
		}
	}()
	res, err = p.specs[idx].Run(ctx, info)
	return res, err, false
}

// classify maps a job return onto the outcome record.
func (p *Pool) classify(out *JobOutcome, res Result, err error, panicked bool) {
	switch {
	case panicked:
		out.Status = StatusPanicked
		out.Err = err.Error()
	case err == nil:
		out.Status = StatusOK
		out.Result = res
	case errors.Is(err, context.DeadlineExceeded):
		out.Status = StatusTimedOut
		out.Err = err.Error()
	case errors.Is(err, context.Canceled):
		out.Status = StatusCancelled
		out.Err = err.Error()
	default:
		out.Status = StatusFailed
		out.Err = err.Error()
	}
}

// buildReport folds the outcome table, in index order, into the final
// deterministic report.
func (p *Pool) buildReport(workers int, wall time.Duration) *Report {
	rep := &Report{
		Workers:  workers,
		Jobs:     p.outcomes,
		Metrics:  make(map[string]Distribution),
		Counters: make(map[string]uint64),
		Wall:     wall,
	}
	samples := make(map[string][]float64)
	lat := make([]float64, 0, len(p.outcomes))
	for _, o := range p.outcomes {
		switch o.Status {
		case StatusOK:
			rep.Completed++
		case StatusFailed:
			rep.Failed++
		case StatusPanicked:
			rep.Panicked++
		case StatusTimedOut:
			rep.TimedOut++
		case StatusCancelled:
			rep.Cancelled++
		}
		if o.Status == StatusOK {
			for name, v := range o.Result.Metrics {
				samples[name] = append(samples[name], v)
			}
			for name, v := range o.Result.Counters {
				rep.Counters[name] += v
			}
			lat = append(lat, o.Elapsed.Seconds())
		}
	}
	for name, s := range samples {
		rep.Metrics[name] = NewDistribution(s)
	}
	rep.Latency = NewDistribution(lat)
	return rep
}

// Done counts the jobs with a terminal outcome so far, preloaded ones
// included; safe to call concurrently with Run. The final Report is
// the one aggregate.
func (p *Pool) Done() int { return int(p.done.Load()) }

// Finished returns a copy of the deterministic outcomes so far
// (Status.Deterministic, the ones Preload accepts), in index order, preloaded
// ones included; safe to call concurrently with Run. Cancelled and
// timed-out shards are wall-clock artifacts and are left out.
func (p *Pool) Finished() []JobOutcome {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []JobOutcome
	for _, o := range p.outcomes {
		if o.Status.Deterministic() {
			out = append(out, o)
		}
	}
	return out
}

// Run is the one-shot convenience wrapper: build a pool and run it.
func Run(ctx context.Context, cfg Config, specs []JobSpec) (*Report, error) {
	p, err := NewPool(cfg, specs)
	if err != nil {
		return nil, err
	}
	return p.Run(ctx)
}
