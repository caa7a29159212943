// Package api holds the wire types (and a small client) shared by the
// arachnet-fleetd daemon, the arachnet-fleet -server submit mode, and
// external automation. The request body for a job submission is
// exactly the JSON fleet specification that the batch CLI accepts
// (arachnet.UnmarshalFleetJSON), so a spec file works unchanged against
// either front end — and, because a run is a pure function of (spec,
// seed), both front ends produce the same report fingerprint.
package api

import (
	"repro/internal/fleet"
	"repro/internal/obs"
)

// Job states reported by the daemon. A job is terminal in StateDone,
// StateFailed or StateCancelled.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// TerminalState reports whether a job in this state will change no
// further.
func TerminalState(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCancelled
}

// SubmitResponse acknowledges a job submission.
//
//	POST /v1/jobs            body: fleet spec JSON
//	  202 → accepted (queued)
//	  200 → hit: the spec's indexed job is done; ID is that job, Cached
//	        is set, and its status, report and stream serve the answer
//	  429 → queue full; Retry-After carries the suggested backoff
//	  503 → daemon is draining, or degraded (its queued checkpoint
//	        could not be written)
type SubmitResponse struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Cached is set on a hit: the (canonicalized spec, seed) spec index
	// holds a done job, returned as ID; no new work was enqueued.
	Cached bool `json:"cached,omitempty"`
	// Fingerprint is the report fingerprint, present on cache hits.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Jobs is the compiled per-vehicle job count of the spec.
	Jobs int `json:"jobs"`
}

// StatusResponse is one job's lifecycle view (GET /v1/jobs/{id}).
type StatusResponse struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Done / Total count finished vs. compiled per-vehicle jobs.
	Done  int `json:"done"`
	Total int `json:"total"`
	// Resumed counts shards restored from a checkpoint rather than
	// recomputed (non-zero only after a daemon restart).
	Resumed int `json:"resumed,omitempty"`
	// Fingerprint is set once the job is done.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Error describes a failed or cancelled job.
	Error string `json:"error,omitempty"`
}

// ListResponse enumerates jobs in submission order (GET /v1/jobs).
type ListResponse struct {
	Jobs []StatusResponse `json:"jobs"`
}

// ReportEnvelope wraps a finished job's full fleet report
// (GET /v1/jobs/{id}/report) together with its deterministic
// fingerprint, so clients need not recompute it.
type ReportEnvelope struct {
	ID          string        `json:"id"`
	Fingerprint string        `json:"fingerprint"`
	Report      *fleet.Report `json:"report"`
}

// Stream line types (GET /v1/jobs/{id}/stream, one JSON object per
// line). A stream opens with a "status" line, carries "event" lines
// while the job runs, and ends with a "done" line.
const (
	StreamStatus = "status"
	StreamEvent  = "event"
	StreamDone   = "done"
)

// StreamLine is one JSONL record of a job's progress stream.
type StreamLine struct {
	Type string `json:"type"`
	// Seq is the event's position in the job's ordered event log
	// (1-based, event lines only). A client that reconnects passes
	// ?after=<last seq> and the server replays everything newer, so an
	// interrupted stream resumes without gaps or duplicates.
	Seq uint64 `json:"seq,omitempty"`
	// Status is the snapshot opening the stream.
	Status *StatusResponse `json:"status,omitempty"`
	// Event is a job lifecycle event (obs vocabulary: job_start /
	// job_finish per vehicle shard).
	Event *obs.Event `json:"event,omitempty"`
	// Dropped counts events this subscriber lost to the slow-reader
	// policy, reported on the final line.
	Dropped uint64 `json:"dropped,omitempty"`
	// Fingerprint / State / Error close the stream on the "done" line.
	Fingerprint string `json:"fingerprint,omitempty"`
	State       string `json:"state,omitempty"`
	Error       string `json:"error,omitempty"`
}

// HealthResponse is the daemon's liveness/pressure view (GET
// /v1/healthz).
type HealthResponse struct {
	OK       bool `json:"ok"`
	Draining bool `json:"draining"`
	Queued   int  `json:"queued"`
	Running  int  `json:"running"`
	// QueueDepth is the admission-control capacity.
	QueueDepth int `json:"queue_depth"`
	// CacheEntries counts the specs whose indexed job is done, so a
	// resubmit of each is a hit; CacheHits counts the submits answered
	// as hits (the submit_cache_hits counter).
	CacheEntries int    `json:"cache_entries"`
	CacheHits    uint64 `json:"cache_hits"`
	// Degraded is set while the checkpoint directory is unwritable:
	// the daemon keeps serving finished specs and health, refuses new
	// specs (their queued checkpoint cannot be written), and recovers
	// automatically once a checkpoint write succeeds again.
	Degraded bool `json:"degraded,omitempty"`
	// DegradedReason is the write error that triggered degraded mode.
	DegradedReason string `json:"degraded_reason,omitempty"`
	// Counters is the daemon's metrics registry (checkpoint writes and
	// errors, quarantines, degraded transitions, deadline overruns, ...),
	// keys sorted by Go's map marshalling.
	Counters map[string]uint64 `json:"counters,omitempty"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}
