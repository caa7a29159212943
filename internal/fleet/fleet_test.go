package fleet

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// workJob is a deterministic CPU-bound job: a short PRNG walk whose
// result depends only on the seed.
func workJob(ctx context.Context, job JobInfo) (Result, error) {
	rng := sim.NewRand(job.Seed)
	var acc float64
	for i := 0; i < 2000; i++ {
		acc += rng.Float64()
		if i%500 == 0 && ctx.Err() != nil {
			return Result{}, ctx.Err()
		}
	}
	return Result{
		Metrics:  map[string]float64{"acc": acc},
		Counters: map[string]uint64{"steps": 2000},
	}, nil
}

func makeSpecs(n int) []JobSpec {
	specs := make([]JobSpec, n)
	for i := range specs {
		specs[i] = JobSpec{Name: fmt.Sprintf("job-%d", i), Run: workJob}
	}
	return specs
}

// TestDeterminismAcrossWorkerCounts is the determinism regression: the
// same fleet run with 1, 3, and 8 workers must produce bit-identical
// reports (fingerprints cover per-job seeds, metrics and fleet
// aggregates).
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	var prints []string
	for _, workers := range []int{1, 3, 8} {
		rep, err := Run(context.Background(), Config{Workers: workers, Seed: 42}, makeSpecs(37))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !rep.Ok() {
			t.Fatalf("workers=%d: %s", workers, rep.FirstError())
		}
		if rep.Completed != 37 {
			t.Fatalf("workers=%d: completed %d", workers, rep.Completed)
		}
		prints = append(prints, rep.Fingerprint())
	}
	for i := 1; i < len(prints); i++ {
		if prints[i] != prints[0] {
			t.Errorf("fingerprint diverges with worker count: %s vs %s", prints[i], prints[0])
		}
	}
}

// TestSeedDerivation pins the derivation's independence properties.
func TestSeedDerivation(t *testing.T) {
	seen := map[uint64]bool{}
	for idx := uint64(0); idx < 1000; idx++ {
		s := DeriveSeed(7, idx)
		if seen[s] {
			t.Fatalf("seed collision at index %d", idx)
		}
		seen[s] = true
	}
	if DeriveSeed(1, 0) == DeriveSeed(2, 0) {
		t.Error("fleet seed does not influence derivation")
	}
	if DeriveSeed(5, 3) != DeriveSeed(5, 3) {
		t.Error("derivation is not a pure function")
	}
	// Explicit seeds pass through untouched.
	rep, err := Run(context.Background(), Config{Workers: 2, Seed: 9},
		[]JobSpec{{Name: "explicit", Seed: 1234, HasSeed: true, Run: workJob},
			{Name: "derived", Run: workJob}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Jobs[0].Seed != 1234 {
		t.Errorf("explicit seed overridden: %d", rep.Jobs[0].Seed)
	}
	if rep.Jobs[1].Seed != DeriveSeed(9, 1) {
		t.Errorf("derived seed mismatch: %d", rep.Jobs[1].Seed)
	}
}

// TestFaultIsolation injects a panicking job, an erroring job, and a
// timeout-exceeding job among healthy siblings: each failure is
// counted in the report and no sibling is poisoned.
func TestFaultIsolation(t *testing.T) {
	specs := makeSpecs(12)
	specs[3].Run = func(ctx context.Context, job JobInfo) (Result, error) {
		panic("injected fault")
	}
	specs[5].Run = func(ctx context.Context, job JobInfo) (Result, error) {
		return Result{}, fmt.Errorf("injected error")
	}
	specs[7].Run = func(ctx context.Context, job JobInfo) (Result, error) {
		// Cooperative slow job: waits far beyond the pool timeout.
		select {
		case <-ctx.Done():
			return Result{}, ctx.Err()
		case <-time.After(10 * time.Second):
			return workJob(ctx, job)
		}
	}
	rep, err := Run(context.Background(),
		Config{Workers: 4, Seed: 1, JobTimeout: 30 * time.Millisecond}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 9 || rep.Panicked != 1 || rep.Failed != 1 || rep.TimedOut != 1 {
		t.Fatalf("counts: %+v", rep)
	}
	if rep.Jobs[3].Status != StatusPanicked || !strings.Contains(rep.Jobs[3].Err, "injected fault") {
		t.Errorf("job 3: %+v", rep.Jobs[3])
	}
	if rep.Jobs[5].Status != StatusFailed {
		t.Errorf("job 5: %+v", rep.Jobs[5])
	}
	if rep.Jobs[7].Status != StatusTimedOut {
		t.Errorf("job 7: %+v", rep.Jobs[7])
	}
	for _, i := range []int{0, 1, 2, 4, 6, 8, 9, 10, 11} {
		if rep.Jobs[i].Status != StatusOK {
			t.Errorf("sibling job %d poisoned: %+v", i, rep.Jobs[i])
		}
	}
	if rep.Ok() {
		t.Error("report claims success despite failures")
	}
	if rep.FirstError() == "" {
		t.Error("FirstError empty")
	}
}

// TestUncooperativeTimeout: a job that ignores its context holds its
// worker until it returns, 50 ms after its 10 ms deadline, and is then
// reported as timed out even though it returned no error; its
// siblings finish normally.
func TestUncooperativeTimeout(t *testing.T) {
	specs := makeSpecs(3)
	specs[1].Run = func(ctx context.Context, job JobInfo) (Result, error) {
		time.Sleep(60 * time.Millisecond) // ignores ctx entirely
		return Result{Metrics: map[string]float64{"late": 1}}, nil
	}
	rep, err := Run(context.Background(),
		Config{Workers: 2, JobTimeout: 10 * time.Millisecond}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if j := rep.Jobs[1]; j.Status != StatusTimedOut || j.Err != "job exceeded timeout 10ms" || j.Result.Metrics != nil {
		t.Fatalf("job 1: %+v", j)
	}
	if rep.Jobs[0].Status != StatusOK || rep.Jobs[2].Status != StatusOK || rep.Completed != 2 {
		t.Fatalf("siblings: %+v", rep)
	}
}

// TestCancellation: cancelling the run context mid-flight yields a
// partial report with the remaining jobs marked cancelled.
func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started atomic.Int32
	specs := make([]JobSpec, 64)
	for i := range specs {
		specs[i] = JobSpec{Name: fmt.Sprintf("job-%d", i),
			Run: func(c context.Context, job JobInfo) (Result, error) {
				if started.Add(1) == 4 {
					cancel()
				}
				select {
				case <-c.Done():
					return Result{}, c.Err()
				case <-time.After(time.Millisecond):
					return Result{Metrics: map[string]float64{"v": 1}}, nil
				}
			}}
	}
	rep, err := Run(ctx, Config{Workers: 2}, specs)
	if err == nil {
		t.Fatal("expected context error")
	}
	if rep == nil {
		t.Fatal("no partial report on cancellation")
	}
	if rep.Cancelled == 0 {
		t.Errorf("no jobs recorded cancelled: %+v", rep)
	}
	if len(rep.Jobs) != 64 {
		t.Errorf("report holds %d jobs", len(rep.Jobs))
	}
	for i, j := range rep.Jobs {
		if j.Status == StatusPending {
			t.Errorf("job %d left pending", i)
		}
	}
}

// TestPoolDone pins the live done count: preloaded outcomes count
// before Run, a finished job is counted before its job_finish event is
// emitted, jobs a cancelled run never started count too, and after Run
// it equals the job count. The report is the aggregate of what
// finished.
func TestPoolDone(t *testing.T) {
	ref, err := Run(context.Background(), Config{Workers: 2, Seed: 3}, makeSpecs(16))
	if err != nil {
		t.Fatal(err)
	}
	var p *Pool
	var finished atomic.Int32
	var lagged atomic.Bool
	cfg := Config{Workers: 2, Seed: 3, Trace: obs.New(sinkFunc(func(ev obs.Event) {
		if ev.Kind == obs.KindJobFinish && p.Done() < 5+int(finished.Add(1)) {
			lagged.Store(true)
		}
	}))}
	p, err = NewPool(cfg, makeSpecs(16))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Preload(ref.Jobs[:5]); err != nil {
		t.Fatal(err)
	}
	if p.Done() != 5 {
		t.Fatalf("Done after preloading 5 = %d", p.Done())
	}
	rep, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if p.Done() != 16 || finished.Load() != 11 {
		t.Fatalf("Done = %d after %d finishes, want 16 after 11", p.Done(), finished.Load())
	}
	if lagged.Load() {
		t.Error("a job_finish event was emitted before Done counted the job")
	}
	if rep.Completed != 16 || rep.Metrics["acc"].Count != 16 || rep.Counters["steps"] != 16*2000 {
		t.Errorf("report: completed %d, acc %+v, steps %d", rep.Completed, rep.Metrics["acc"], rep.Counters["steps"])
	}
	if rep.Fingerprint() != ref.Fingerprint() {
		t.Error("preloaded run fingerprints differently from the uninterrupted one")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cp, err := NewPool(Config{Workers: 2}, makeSpecs(8))
	if err != nil {
		t.Fatal(err)
	}
	crep, _ := cp.Run(ctx)
	if cp.Done() != 8 || crep.Cancelled != 8 {
		t.Errorf("cancelled run: Done = %d, cancelled = %d, want 8 each", cp.Done(), crep.Cancelled)
	}
}

// TestPoolFinished pins the checkpoint view of a pool: the ok and
// failed outcomes in index order, preloaded ones included, and no
// cancelled shard. It is read while the workers write, as fleetd's
// checkpoint ticker reads it.
func TestPoolFinished(t *testing.T) {
	specs := makeSpecs(8)
	specs[6].Run = func(context.Context, JobInfo) (Result, error) { return Result{}, fmt.Errorf("bad shard") }
	ref, err := Run(context.Background(), Config{Workers: 2, Seed: 3}, specs)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPool(Config{Workers: 2, Seed: 3}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Preload([]JobOutcome{ref.Jobs[4], ref.Jobs[1]}); err != nil {
		t.Fatal(err)
	}
	if got := p.Finished(); len(got) != 2 || got[0].Index != 1 || got[1].Index != 4 {
		t.Fatalf("Finished after preload: %+v", got)
	}
	stop := make(chan struct{})
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		for {
			got := p.Finished()
			for i := 1; i < len(got); i++ {
				if got[i-1].Index >= got[i].Index {
					t.Errorf("Finished during Run is out of index order: %d before %d", got[i-1].Index, got[i].Index)
					return
				}
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	rep, err := p.Run(context.Background())
	close(stop)
	<-polled
	if err != nil {
		t.Fatal(err)
	}
	got := p.Finished()
	if len(got) != 8 || got[6].Status != StatusFailed {
		t.Fatalf("Finished after Run: %d outcomes, job 6 %v", len(got), got[6].Status)
	}
	for i, o := range got {
		if o.Index != i || o.Seed != rep.Jobs[i].Seed || o.Status != rep.Jobs[i].Status {
			t.Fatalf("Finished[%d] = %+v, report has %+v", i, o, rep.Jobs[i])
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cp, err := NewPool(Config{Workers: 2}, makeSpecs(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cp.Run(ctx); err == nil || len(cp.Finished()) != 0 {
		t.Errorf("cancelled run: err %v, Finished %+v; want an error and no outcomes", err, cp.Finished())
	}
}

// TestDistribution pins the percentile arithmetic.
func TestDistribution(t *testing.T) {
	if d := NewDistribution(nil); d.Count != 0 {
		t.Errorf("empty distribution: %+v", d)
	}
	d := NewDistribution([]float64{5, 1, 3, 2, 4})
	if d.Count != 5 || d.Min != 1 || d.Max != 5 || d.P50 != 3 || d.Mean != 3 {
		t.Errorf("distribution: %+v", d)
	}
	// Order independence, including the mean's summation order.
	d2 := NewDistribution([]float64{4, 2, 1, 3, 5})
	if d != d2 {
		t.Errorf("distribution depends on sample order: %+v vs %+v", d, d2)
	}
}

// TestPoolValidation covers constructor errors.
func TestPoolValidation(t *testing.T) {
	if _, err := NewPool(Config{}, nil); err == nil {
		t.Error("empty job list accepted")
	}
	if _, err := NewPool(Config{}, []JobSpec{{Name: "x"}}); err == nil {
		t.Error("nil run function accepted")
	}
}

// TestObservers checks lifecycle delivery: one job_start and one
// job_finish event per job reach Config.Trace.
func TestObservers(t *testing.T) {
	var starts, finishes atomic.Int32
	tr := obs.New(sinkFunc(func(ev obs.Event) {
		switch ev.Kind {
		case obs.KindJobStart:
			starts.Add(1)
		case obs.KindJobFinish:
			finishes.Add(1)
		}
	}))
	if _, err := Run(context.Background(), Config{Workers: 3, Trace: tr}, makeSpecs(10)); err != nil {
		t.Fatal(err)
	}
	if starts.Load() != 10 || finishes.Load() != 10 {
		t.Errorf("trace events: %d starts, %d finishes", starts.Load(), finishes.Load())
	}
}

// sinkFunc adapts a function to obs.Sink.
type sinkFunc func(obs.Event)

// Emit implements obs.Sink.
func (f sinkFunc) Emit(ev obs.Event) { f(ev) }

// TestInlineFaultIsolation covers a pool with JobTimeout unset (no
// per-job deadline or timer): panic/error isolation must still hold
// there.
func TestInlineFaultIsolation(t *testing.T) {
	specs := makeSpecs(8)
	specs[2].Run = func(ctx context.Context, job JobInfo) (Result, error) {
		panic("inline fault")
	}
	specs[4].Run = func(ctx context.Context, job JobInfo) (Result, error) {
		return Result{}, fmt.Errorf("inline error")
	}
	rep, err := Run(context.Background(), Config{Workers: 3, Seed: 4}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 6 || rep.Panicked != 1 || rep.Failed != 1 {
		t.Fatalf("counts: %+v", rep)
	}
	if rep.Jobs[2].Status != StatusPanicked || !strings.Contains(rep.Jobs[2].Err, "inline fault") {
		t.Errorf("job 2: %+v", rep.Jobs[2])
	}
	if rep.Jobs[4].Status != StatusFailed || rep.Jobs[4].Err != "inline error" {
		t.Errorf("job 4: %+v", rep.Jobs[4])
	}
	// Healthy siblings keep their results.
	if rep.Jobs[0].Status != StatusOK || rep.Jobs[0].Result.Metrics["acc"] == 0 {
		t.Errorf("job 0: %+v", rep.Jobs[0])
	}
}
