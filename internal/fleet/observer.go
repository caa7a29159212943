package fleet

import "repro/internal/obs"

// Observer receives job lifecycle events from the pool. Methods are
// invoked from worker goroutines; implementations must be safe for
// concurrent use.
type Observer interface {
	JobStarted(job JobInfo)
	JobFinished(outcome JobOutcome)
}

// MultiObserver fans lifecycle events out to several observers; nil
// entries are skipped.
func MultiObserver(observers ...Observer) Observer {
	kept := make(multiObserver, 0, len(observers))
	for _, o := range observers {
		if o != nil {
			kept = append(kept, o)
		}
	}
	return kept
}

type multiObserver []Observer

// JobStarted implements Observer.
func (m multiObserver) JobStarted(job JobInfo) {
	for _, o := range m {
		o.JobStarted(job)
	}
}

// JobFinished implements Observer.
func (m multiObserver) JobFinished(outcome JobOutcome) {
	for _, o := range m {
		o.JobFinished(outcome)
	}
}

// TracerObserver forwards job lifecycle events to an obs.Tracer, so a
// fleet run shares one sink (and one metrics registry) with the
// per-vehicle simulations. The tracer itself serializes concurrent
// emits.
type TracerObserver struct {
	T *obs.Tracer
}

// NewTracerObserver wraps a tracer as a fleet observer.
func NewTracerObserver(t *obs.Tracer) TracerObserver { return TracerObserver{T: t} }

// JobStarted implements Observer.
func (t TracerObserver) JobStarted(job JobInfo) {
	t.T.Emit(obs.Event{Kind: obs.KindJobStart, Job: job.Index, Name: job.Name, Seed: job.Seed})
}

// JobFinished implements Observer. Value carries the wall-clock
// elapsed seconds; Detail is the status, with the error text appended
// for failed jobs.
func (t TracerObserver) JobFinished(o JobOutcome) {
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
	t.T.Emit(ev)
}
