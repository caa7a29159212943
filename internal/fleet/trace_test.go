package fleet

import (
	"context"
	"errors"
	"testing"

	"repro/internal/obs"
)

// TestTracerObserver checks that the pool's lifecycle reaches
// Config.Trace as the shared job event types, with starts and finishes
// paired per job.
func TestTracerObserver(t *testing.T) {
	mem := obs.NewMemorySink()
	census := obs.NewMetrics()
	tr := obs.New(mem, census)
	if _, err := Run(context.Background(), Config{Workers: 3, Trace: tr}, makeSpecs(8)); err != nil {
		t.Fatal(err)
	}
	evs := mem.Events()
	starts := obs.OfKind(evs, obs.KindJobStart)
	finishes := obs.OfKind(evs, obs.KindJobFinish)
	if len(starts) != 8 || len(finishes) != 8 {
		t.Fatalf("got %d starts, %d finishes, want 8 each", len(starts), len(finishes))
	}
	seen := make(map[int]bool)
	for _, ev := range finishes {
		if ev.Detail != StatusOK.String() {
			t.Fatalf("job %d finished %q", ev.Job, ev.Detail)
		}
		if ev.Value < 0 {
			t.Fatalf("job %d negative elapsed %v", ev.Job, ev.Value)
		}
		seen[ev.Job] = true
	}
	if len(seen) != 8 {
		t.Fatalf("finish events cover %d distinct jobs, want 8", len(seen))
	}
	sn := census.Snapshot()
	counts := map[string]uint64{}
	for _, c := range sn.Counters {
		counts[c.Name] = c.Value
	}
	if counts["events_job_start"] != 8 || counts["events_job_finish"] != 8 {
		t.Fatalf("metrics counters wrong: %+v", sn.Counters)
	}
}

// TestJobFinishEventError checks that failures carry the error text in
// the event detail.
func TestJobFinishEventError(t *testing.T) {
	mem := obs.NewMemorySink()
	specs := makeSpecs(4)
	specs[3].Run = func(context.Context, JobInfo) (Result, error) { return Result{}, errors.New("boom") }
	if _, err := Run(context.Background(), Config{Workers: 2, Trace: obs.New(mem)}, specs); err != nil {
		t.Fatal(err)
	}
	var failed []obs.Event
	for _, ev := range obs.OfKind(mem.Events(), obs.KindJobFinish) {
		if ev.Job == 3 {
			failed = append(failed, ev)
		}
	}
	if len(failed) != 1 || failed[0].Name != "job-3" {
		t.Fatalf("job 3 finish events wrong: %+v", failed)
	}
	if want := StatusFailed.String() + ": boom"; failed[0].Detail != want {
		t.Fatalf("detail = %q, want %q", failed[0].Detail, want)
	}
}
