// Command arachnet-fleet runs a fleet of independent ARACHNET
// simulations through the sharded worker pool and prints the
// aggregated report.
//
// The fleet is described by a JSON spec file, or built ad hoc from
// flags when no spec is given. The spec schema is the json tags of
// arachnet.Fleet, VehicleSpec and NetworkConfig, with the job timeout
// as job_timeout_ms (arachnet/fleetjson.go has a worked example):
//
//	arachnet-fleet fleet.json
//	arachnet-fleet -spec fleet.json -workers 8 -timeout 90s -json
//	arachnet-fleet -pattern c3 -vehicles 64 -converge 500000
//	arachnet-fleet -engine network -pattern c2 -vehicles 16 -seconds 120
//	arachnet-fleet -pattern c5 -vehicles 32 -write-spec fleet.json
//	arachnet-fleet -pattern c7 -vehicles 32 -faults plan.json
//
// -faults loads a fault plan (see internal/faults) as the fleet-wide
// default, turning the run into a chaos sweep that also reports
// recovery metrics; vehicles in a spec file may pin their own plans.
//
// With -server URL the same spec is submitted to a running
// arachnet-fleetd daemon instead of running locally: progress streams
// back as it runs, then the report prints exactly as in batch mode.
// Because a run is a pure function of (spec, seed), -verify follows up
// with a local run and cross-checks that both fingerprints agree. -job
// ID attaches to an already-submitted job (stream + report) without
// submitting anything. The -trace/-metrics flags apply to local runs
// only; -trace - streams the job_start/job_finish events to stderr.
//
//	arachnet-fleet -server http://127.0.0.1:8040 fleet.json
//	arachnet-fleet -server http://127.0.0.1:8040 -pattern c3 -vehicles 64 -verify
//	arachnet-fleet -server http://127.0.0.1:8040 -job job-000002 -json
//
// Results are deterministic for a given spec and seed: the report's
// fingerprint is independent of -workers and of scheduling, so two
// operators running the same spec can diff fingerprints to cross-check
// their fleets. Fault injection preserves this: chaos sweeps replicate
// bit-identically too.
//
// SIGINT/SIGTERM cancel the remaining jobs; the partial report still
// prints, sinks flush, and the process exits non-zero.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"repro/arachnet"
	"repro/internal/fleetd/api"
	"repro/internal/prof"
)

// stopProf finishes profiling; every exit path runs it so the profiles
// are valid even on fatal errors.
var stopProf = func() error { return nil }

// stdout carries every report line and keeps its first write error:
// a report lost to a full disk fails the run (exit 1).
var stdout = &errWriter{w: os.Stdout}

func main() {
	specPath := flag.String("spec", "", "JSON fleet specification (or pass as the first argument)")
	workers := flag.Int("workers", 0, "worker shards (0 = GOMAXPROCS; overrides the spec)")
	timeout := flag.Duration("timeout", 0, "per-job wall-clock timeout (overrides the spec)")
	seed := flag.Uint64("seed", 0, "fleet master seed (overrides the spec)")
	jsonOut := flag.Bool("json", false, "write the full report as JSON on stdout")
	tracePath := flag.String("trace", "", `write job lifecycle events (job_start, job_finish) to this file ("-" = stderr)`)
	traceFormat := flag.String("trace-format", "jsonl", "trace encoding: jsonl or binary (convert either way with arachnet-trace -convert)")
	metrics := flag.Bool("metrics", false, "print aggregated event metrics to stderr at exit")
	writeSpec := flag.String("write-spec", "", "write the effective fleet spec as JSON to this file and exit")
	faultsPath := flag.String("faults", "", "JSON fault plan injected into every vehicle (fleet-wide default; spec vehicles may override)")
	serverURL := flag.String("server", "", "submit to a running arachnet-fleetd at this base URL instead of running locally")
	jobID := flag.String("job", "", "with -server: attach to this existing job instead of submitting")
	verify := flag.Bool("verify", false, "with -server: also run the fleet locally and cross-check the fingerprints")
	quiet := flag.Bool("quiet", false, "with -server: suppress the streamed per-job progress lines")
	retries := flag.Int("retries", 0, "with -server: retry transient transport/5xx failures up to this many attempts per call, honoring Retry-After (0 = one attempt)")
	flakyEvery := flag.Int("flaky", 0, "with -server: fault-injection aid — fail every Nth client request at the transport, exercising -retries (0 = off)")
	healthOnly := flag.Bool("health", false, "with -server: print the daemon's /v1/healthz JSON and exit")

	// Ad-hoc sweep construction, used when no spec file is given.
	engine := flag.String("engine", "slots", "ad-hoc sweep: engine (slots or network)")
	pattern := flag.String("pattern", "c3", "ad-hoc sweep: Table 3 workload (c1..c9)")
	vehicles := flag.Int("vehicles", 64, "ad-hoc sweep: fleet size")
	slots := flag.Int("slots", 10_000, "ad-hoc sweep: slots per vehicle (slots engine)")
	converge := flag.Int("converge", 0, "ad-hoc sweep: run to convergence with this slot cap (slots engine)")
	seconds := flag.Int("seconds", 120, "ad-hoc sweep: simulated seconds per vehicle (network engine)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()

	profStop, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	stopProf = profStop

	if *specPath == "" && flag.NArg() > 0 {
		*specPath = flag.Arg(0)
	}

	var f arachnet.Fleet
	if *specPath != "" {
		var err error
		f, err = arachnet.LoadFleetFile(*specPath)
		if err != nil {
			fatal(err)
		}
	} else {
		f = arachnet.Fleet{
			Seed: 1,
			Vehicles: []arachnet.VehicleSpec{{
				Name:           "vehicle",
				Engine:         *engine,
				Pattern:        *pattern,
				Slots:          *slots,
				ConvergeWithin: *converge,
				Seconds:        *seconds,
				Replicate:      *vehicles,
			}},
		}
	}
	flag.Visit(func(fl *flag.Flag) {
		switch fl.Name {
		case "workers":
			f.Workers = *workers
		case "timeout":
			f.JobTimeout = *timeout
		case "seed":
			f.Seed = *seed
		}
	})
	if *faultsPath != "" {
		plan, err := arachnet.LoadFaultPlanFile(*faultsPath)
		if err != nil {
			fatal(err)
		}
		f.Faults = &plan
	}

	if *writeSpec != "" {
		if err := arachnet.SaveFleetFile(*writeSpec, f); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote fleet spec to %s\n", *writeSpec)
		return
	}
	if *serverURL != "" {
		// Client mode: the daemon runs the fleet; this process submits,
		// streams, and prints — and optionally re-runs locally to
		// cross-check determinism across the two front ends. The retry
		// schedule is fixed, so a faulted session retries the same way
		// every time.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		c := newServerClient(*serverURL, *retries, *flakyEvery)
		var code int
		if *healthOnly {
			code = printHealth(ctx, c)
		} else {
			code = runClient(ctx, c, *jobID, f, *jsonOut, *verify, *quiet)
		}
		exit(code)
	}

	// Lifecycle observability: a JSONL or binary stream (-trace - for
	// stderr) and/or metrics ride the obs event types.
	var trace *arachnet.StreamSink
	var census *arachnet.TraceMetrics
	if *tracePath != "" || *metrics {
		var sinks []arachnet.TraceSink
		if *tracePath != "" {
			var err error
			trace, err = arachnet.CreateTraceFile(*tracePath, *traceFormat)
			if err != nil {
				fatal(err)
			}
			sinks = append(sinks, trace)
		}
		if *metrics {
			census = arachnet.NewTraceMetrics()
			sinks = append(sinks, census)
		}
		f.Trace = arachnet.NewTracer(sinks...)
	}

	jobs, err := f.Jobs()
	if err != nil {
		fatal(err)
	}
	if !*jsonOut {
		fmt.Fprintf(stdout, "fleet: %d jobs, %d vehicles, seed %d\n", len(jobs), len(f.Vehicles), f.Seed)
	}

	// SIGINT/SIGTERM cancel the run but still print the partial report
	// and flush the trace sinks; the exit status is non-zero.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rep, err := f.Run(ctx)
	if rep == nil {
		fatal(err)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleet interrupted: %v (partial report follows)\n", err)
	}

	if *jsonOut {
		printJSON(rep)
	} else {
		printReport(rep)
	}
	if trace != nil {
		if err := trace.Close(); err != nil {
			fatal(fmt.Errorf("trace: %w", err))
		}
	}
	if census != nil {
		fmt.Fprintln(os.Stderr, census.Snapshot())
	}
	code := 0
	if !rep.Ok() || ctx.Err() != nil {
		code = 1
	}
	exit(code)
}

// exit stops profiling and ends the process with code, or with 1 when
// a stdout write failed.
func exit(code int) {
	if err := stopProf(); err != nil {
		fatal(err)
	}
	if stdout.err != nil {
		fmt.Fprintln(os.Stderr, stdout.err)
		code = 1
	}
	os.Exit(code)
}

// printJSON writes v to stdout as indented JSON; an encoding error is
// kept as stdout's error, so it fails the run at exit too.
func printJSON(v any) {
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil && stdout.err == nil {
		stdout.err = err
	}
}

func printReport(rep *arachnet.FleetReport) {
	fmt.Fprintf(stdout, "\nfleet report (workers=%d, wall=%v)\n", rep.Workers, rep.Wall.Round(time.Millisecond))
	fmt.Fprintf(stdout, "  jobs: %d ok, %d failed, %d panicked, %d timed out, %d cancelled\n",
		rep.Completed, rep.Failed, rep.Panicked, rep.TimedOut, rep.Cancelled)
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(stdout, "  %-18s %s\n", name, rep.Metrics[name])
	}
	names = names[:0]
	for name := range rep.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(stdout, "  %-18s %d (fleet total)\n", name, rep.Counters[name])
	}
	fmt.Fprintf(stdout, "  job latency       %s\n", rep.Latency)
	for _, j := range rep.Jobs {
		if j.Status != arachnet.FleetJobOK {
			fmt.Fprintf(stdout, "  FAILED job %d (%s): %s: %s\n", j.Index, j.Name, j.Status, j.Err)
		}
	}
	fmt.Fprintf(stdout, "  fingerprint       %s\n", rep.Fingerprint())
}

// flakyTransport fails every Nth request with a transport error — a
// deterministic fault-injection aid for demonstrating (and smoke-
// testing) the client retry path against a live daemon.
type flakyTransport struct {
	next  http.RoundTripper
	every uint64
	n     atomic.Uint64
}

func (t *flakyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if n := t.n.Add(1); n%t.every == 0 {
		return nil, fmt.Errorf("flaky transport: injected failure (request %d)", n)
	}
	return t.next.RoundTrip(req)
}

// newServerClient assembles the fleetd client from the retry
// flags: -retries enables exponential-backoff retries, -flaky injects
// a deterministic transport fault schedule under them.
func newServerClient(base string, retries, flakyEvery int) *api.Client {
	var opts []api.Option
	if flakyEvery > 0 {
		opts = append(opts, api.WithTransport(&flakyTransport{next: http.DefaultTransport, every: uint64(flakyEvery)}))
	}
	if retries > 0 {
		opts = append(opts, api.WithRetry(retries, 0))
	}
	return api.NewClient(base, opts...)
}

// printHealth fetches and prints /v1/healthz as JSON (the -health mode).
func printHealth(ctx context.Context, c *api.Client) int {
	h, err := c.Health(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	printJSON(h)
	if !h.OK || h.Degraded {
		return 1
	}
	return 0
}

// runClient drives a remote fleetd run: submit (or attach with -job),
// stream progress, fetch and print the report, and optionally verify
// the fingerprint against a local run. Returns the process exit code.
func runClient(ctx context.Context, c *api.Client, jobID string, f arachnet.Fleet, jsonOut, verify, quiet bool) int {
	cached := false
	if jobID == "" {
		spec, err := arachnet.MarshalFleetJSON(f)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		sub, err := c.Submit(ctx, spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		jobID = sub.ID
		cached = sub.Cached
		if !jsonOut {
			if cached {
				fmt.Fprintf(stdout, "job %s: response cache hit (fingerprint %s)\n", sub.ID, sub.Fingerprint)
			} else {
				fmt.Fprintf(stdout, "job %s: queued (%d vehicle jobs) on %s\n", sub.ID, sub.Jobs, c.Base())
			}
		}
	}

	// Follow the JSONL stream until the daemon reports the job done; a
	// hit replays the indexed job's retained events.
	done, err := c.Stream(ctx, jobID, func(line api.StreamLine) error {
		if quiet || jsonOut || line.Type != api.StreamEvent || line.Event == nil {
			return nil
		}
		ev := line.Event
		switch ev.Kind {
		case arachnet.TraceJobStart:
			fmt.Fprintf(os.Stderr, "start  job %4d %-24s seed=%d\n", ev.Job, ev.Name, ev.Seed)
		case arachnet.TraceJobFinish:
			fmt.Fprintf(os.Stderr, "finish job %4d %-24s %s\n", ev.Job, ev.Name, ev.Detail)
		}
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if done.State != api.StateDone {
		fmt.Fprintf(os.Stderr, "job %s ended %s: %s\n", jobID, done.State, done.Error)
		return 1
	}
	if done.Dropped > 0 && !quiet {
		fmt.Fprintf(os.Stderr, "(stream dropped %d progress events; report is unaffected)\n", done.Dropped)
	}

	env, err := c.Report(ctx, jobID)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if jsonOut {
		printJSON(env)
	} else {
		printReport(env.Report)
		if cached {
			fmt.Fprintf(stdout, "  (served from the (spec, seed) response cache)\n")
		}
	}
	if got := env.Report.Fingerprint(); got != env.Fingerprint {
		fmt.Fprintf(os.Stderr, "FAIL: server fingerprint %s does not match its own report (%s)\n", env.Fingerprint, got)
		return 1
	}

	if verify {
		// Determinism cross-check: the same (spec, seed) run locally
		// must fingerprint identically to the daemon's report.
		local, err := f.Run(ctx)
		if local == nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		lf := local.Fingerprint()
		if lf != env.Fingerprint {
			fmt.Fprintf(os.Stderr, "FAIL: local fingerprint %s != server fingerprint %s\n", lf, env.Fingerprint)
			return 1
		}
		fmt.Fprintf(stdout, "verified: local run fingerprint matches (%s)\n", lf)
	}
	// Printed last so the count covers every call, report fetch included.
	if n := c.Retries(); n > 0 && !quiet {
		fmt.Fprintf(os.Stderr, "(client retried %d time(s) through transport faults)\n", n)
	}
	if !env.Report.Ok() {
		return 1
	}
	return 0
}

// errWriter keeps the first error of the writer under it and refuses
// every write after that one.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return 0, e.err
	}
	n, err := e.w.Write(p)
	e.err = err
	return n, err
}

func fatal(err error) {
	if ferr := stopProf(); ferr != nil {
		fmt.Fprintln(os.Stderr, ferr)
	}
	stopProf = func() error { return nil }
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
