package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"

	"repro/internal/fleet"
	"repro/internal/obs"
)

// Parallel Monte Carlo fan-out. Experiments keep their RNG discipline —
// every stream is forked from the parent in the exact sequential order
// the serial code used — and only the forked, independent trial bodies
// run concurrently, as jobs of the internal/fleet worker pool. Results
// land at their job index and are aggregated in index order, so the
// output is bit-identical for any worker count, including 1.

// experimentWorkers is the fan-out width for independent trials; the
// default uses every available core. Override with SetWorkers (the
// CLI's -workers flag and the determinism tests do).
var experimentWorkers = runtime.GOMAXPROCS(0)

// experimentTrace, when set, receives the job lifecycle events of every
// trial fan-out — the CLI's -trace flag hooks its JSONL or binary sink
// here. Trial results are unaffected: the tracer only observes.
var experimentTrace *obs.Tracer

// SetWorkers sets the trial fan-out width and returns the previous
// value; n < 1 restores the GOMAXPROCS default. Results never depend on
// the width — only wall-clock time does.
func SetWorkers(n int) int {
	prev := experimentWorkers
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	experimentWorkers = n
	return prev
}

// SetTrace installs (or, with nil, removes) the tracer that observes
// experiment trials, returning the previous one. Call it before running
// experiments; it is not synchronized against running fan-outs.
func SetTrace(tr *obs.Tracer) *obs.Tracer {
	prev := experimentTrace
	experimentTrace = tr
	return prev
}

// runJobs executes fn(0..n-1) as one fleet run of n jobs named
// name-i, with seed i, on up to experimentWorkers workers. fn must
// write its result into caller-owned, index-addressed storage. The
// returned error carries the text of the lowest-numbered failing job
// (a panic is reported as one), so error reporting is as deterministic
// as the results.
func runJobs(name string, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	specs := make([]fleet.JobSpec, n)
	for i := range specs {
		specs[i] = fleet.JobSpec{
			Name:    fmt.Sprintf("%s-%d", name, i),
			Seed:    uint64(i),
			HasSeed: true,
			Run: func(context.Context, fleet.JobInfo) (fleet.Result, error) {
				return fleet.Result{}, fn(i)
			},
		}
	}
	rep, err := fleet.Run(context.Background(), fleet.Config{Workers: experimentWorkers, Trace: experimentTrace}, specs)
	if err != nil {
		return err
	}
	for _, o := range rep.Jobs {
		if o.Status != fleet.StatusOK {
			return errors.New(o.Err)
		}
	}
	return nil
}
