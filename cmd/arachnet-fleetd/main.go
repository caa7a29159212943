// Command arachnet-fleetd is the fleet-as-a-service daemon: the same
// deterministic fleet engine behind arachnet-fleet, promoted to a
// long-running HTTP/JSONL service with a bounded job queue, streaming
// progress, a (spec, seed) spec index, and checkpointed resume.
//
// The spec index keys every job on its canonical spec (field order and
// whitespace normalized away; the master seed is a spec field). A
// submit of a spec whose indexed job is done is a cache hit, answered
// with that job itself: its ID and a bit-identical fingerprint, and its
// status, report and stream. A hit adds no job and writes no
// checkpoint. A job whose report holds a timed-out shard answers no
// resubmit; its spec runs again. A submit whose indexed job is queued
// or running gets that job back. A hit lasts as long as the daemon
// keeps the job: finished jobs are kept, and reloaded from
// -checkpoint-dir on restart.
//
//	arachnet-fleetd -addr 127.0.0.1:8040 -checkpoint-dir /var/lib/fleetd
//	arachnet-fleetd -addr 127.0.0.1:0 -queue 128 -runners 4
//
// Submit the same JSON specs the batch CLI accepts:
//
//	arachnet-fleet -server http://127.0.0.1:8040 fleet.json
//	curl -d @fleet.json http://127.0.0.1:8040/v1/jobs
//
// Endpoints (all JSON):
//
//	POST   /v1/jobs             submit a fleet spec (202 queued, 200 cache hit,
//	                            429 + Retry-After when the queue is full,
//	                            503 when draining or degraded)
//	GET    /v1/jobs             list jobs
//	GET    /v1/jobs/{id}        job status
//	GET    /v1/jobs/{id}/stream JSONL progress stream
//	GET    /v1/jobs/{id}/report final report + fingerprint
//	DELETE /v1/jobs/{id}        cancel
//	GET    /v1/healthz          liveness and queue pressure
//
// SIGINT/SIGTERM drain gracefully: new submissions get 503, running
// jobs checkpoint their completed shards, and a restarted daemon with
// the same -checkpoint-dir finishes interrupted sweeps with the same
// report fingerprint an uninterrupted run would have produced.
//
// Resilience: checkpoints are written crash-safely (fsync + rename +
// directory fsync) as CRC-tagged binary CKP1 frames (<id>.ckpt.bin;
// `arachnet-trace -convert` dumps one as JSON); a checkpoint that fails
// to decode on restart is quarantined as <id>.corrupt instead of blocking
// the fleet. A job is admitted only once its queued checkpoint is
// durable. When the checkpoint directory turns unwritable the daemon
// enters degraded mode — finished specs and /v1/healthz keep serving,
// new specs get 503 because their admission write fails — and
// recovers on the next write that succeeds, a new spec's admission
// write included. -job-deadline bounds each job's wall clock. Each shard runs
// once: it is a pure function of its seed, so a failed shard stays
// failed in the report rather than being re-executed.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/fleetd"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8040", "listen address (port 0 picks a random free port)")
	queueDepth := flag.Int("queue", 64, "admission queue depth (full queue answers 429)")
	runners := flag.Int("runners", 1, "concurrent fleet runs (each shards across its own pool workers)")
	workerCap := flag.Int("worker-cap", 0, "cap pool workers per job (0 = spec / GOMAXPROCS)")
	ckptDir := flag.String("checkpoint-dir", "", "persist job checkpoints here for resume after restart (empty = disabled)")
	ckptEvery := flag.Duration("checkpoint-every", 2*time.Second, "snapshot interval for running jobs")
	jobDeadline := flag.Duration("job-deadline", 0, "per-job wall-clock deadline; an overrunning job fails (0 = unlimited)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max wait for checkpoint-and-exit on SIGINT/SIGTERM")
	quiet := flag.Bool("quiet", false, "suppress operational logging")
	flag.Parse()

	logger := log.New(os.Stderr, "", log.LstdFlags)
	logf := logger.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}

	srv, err := fleetd.New(fleetd.Config{
		QueueDepth:      *queueDepth,
		Runners:         *runners,
		WorkerCap:       *workerCap,
		CheckpointDir:   *ckptDir,
		CheckpointEvery: *ckptEvery,
		JobDeadline:     *jobDeadline,
		Logf:            logf,
	})
	if err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	// The resolved address goes to stdout (logs go to stderr) so
	// scripts binding port 0 can parse the port.
	fmt.Printf("fleetd listening on http://%s\n", ln.Addr())

	srv.Start()
	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	// Serve blocks until the listener closes; the select below reaps the
	// error, and process exit reaps the goroutine.
	//lint:allow goroutine-hygiene Serve goroutine ends when the listener closes at shutdown
	go func() { serveErr <- hs.Serve(ln) }()

	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		fatal(err)
	case <-sigCtx.Done():
	}

	logf("fleetd: draining (checkpointing in-flight jobs)")
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		logger.Print(err)
	}
	if err := hs.Shutdown(ctx); err != nil {
		logger.Print(err)
	}
	logf("fleetd: stopped")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
