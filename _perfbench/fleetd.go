package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/arachnet"
	"repro/internal/fleetd"
	"repro/internal/fleetd/api"
	"repro/internal/obs"
)

// fleetd-loopback: a fleetd daemon with a real checkpoint directory and
// default settings, served on a loopback listener. fleetdClients
// closed-loop clients mix, half and half, a fresh-seed spec (a cache
// miss: queue, run, stream, two checkpoint fsyncs) and a resubmission
// of one of their own recent misses (a cache hit: lookup, report
// encode, one checkpoint fsync). Each operation is submit -> stream to the done
// line -> report. Every miss's fingerprint is checked after the window
// against an in-process Fleet.Run of the same spec, and every hit's
// against its miss. The window runs in segments of fleetdSegment with
// a host probe between them; each operation's time is scaled by the
// probes around its segment.

const (
	fleetdClients = 2
	// fleetdSetupRounds is larger than the sweep's: one set-up here takes
	// only tens of milliseconds, so a median over few rounds is noisy and
	// more rounds are cheap.
	fleetdSetupRounds = 25
	// hitWindow bounds how far back a hit reaches: the client's last
	// hitWindow misses, well inside the daemon's 128-entry cache.
	hitWindow = 32
	// ckptWrites is how many checkpoint writes the traced run times.
	ckptWrites = 20
	// recordedMisses is how many of each client's first misses the
	// reference file pins.
	recordedMisses = 4
	// rssOps is the operation count at which peak RSS is read. The
	// daemon keeps every job it served, so memory grows with operations;
	// reading it after a fixed count keeps the metric independent of
	// throughput.
	rssOps = 1000
	// fleetdSegment is how long the clients run between host probes.
	fleetdSegment = time.Second
)

// rssProbe reads the peak RSS when the clients together complete their
// rssOps-th operation.
type rssProbe struct {
	ops atomic.Int64
	mb  float64
}

func (p *rssProbe) done() {
	if p.ops.Add(1) == rssOps {
		p.mb = peakRSSMB()
	}
}

type fleetdSize struct{ Replicas, Slots int }

func fleetdSizeFor(small bool) fleetdSize {
	if small {
		return fleetdSize{Replicas: 2, Slots: 300}
	}
	return fleetdSize{Replicas: 8, Slots: 2000}
}

// fleetdSpec is the submitted fleet: c3 and c5, replicated.
func fleetdSpec(seed uint64, sz fleetdSize) []byte {
	return []byte(fmt.Sprintf(`{"seed": %d, "vehicles": [`+
		`{"name": "c3", "engine": "slots", "pattern": "c3", "slots": %d, "replicate": %d}, `+
		`{"name": "c5", "engine": "slots", "pattern": "c5", "slots": %d, "replicate": %d}]}`,
		seed, sz.Slots, sz.Replicas, sz.Slots, sz.Replicas))
}

// specSeed keeps spec seeds well inside the range JSON numbers carry
// exactly.
func specSeed(base, i uint64) uint64 { return arachnet.DeriveFleetSeed(base, i) & (1<<48 - 1) }

// daemon is one fleetd instance on a loopback listener.
type daemon struct {
	dir    string
	srv    *fleetd.Server
	hs     *http.Server
	served chan error
	base   string
}

func startDaemon(workDir string) (*daemon, error) {
	dir, err := os.MkdirTemp(workDir, "fleetd-ckpt-")
	if err != nil {
		return nil, err
	}
	srv, err := fleetd.New(fleetd.Config{CheckpointDir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	d := &daemon{
		dir:    dir,
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	srv.Start()
	return d, nil
}

// stop shuts the listener, drains the daemon, waits for both and
// removes the checkpoint directory.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if e := <-d.served; !errors.Is(e, http.ErrServerClosed) && err == nil {
		err = e
	}
	if e := d.srv.Drain(ctx); err == nil {
		err = e
	}
	if e := os.RemoveAll(d.dir); err == nil {
		err = e
	}
	return err
}

// fleetdOp is one submit -> stream -> report round trip.
type fleetdOp struct {
	hit, traced bool
	seed        uint64
	seg         int // window segment the operation ran in
	fp          string
	rep         *arachnet.FleetReport

	total, submit, report, queueWait, run, finalize time.Duration
}

// do runs the round trip and checks what the daemon answered.
func (op *fleetdOp) do(ctx context.Context, c *api.Client, spec []byte) error {
	start := time.Now()
	sub, err := c.Submit(ctx, spec)
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	submitted := time.Now()
	var first, last time.Time
	done, err := c.Stream(ctx, sub.ID, func(l api.StreamLine) error {
		if op.traced && l.Type == api.StreamEvent && l.Event != nil {
			now := time.Now()
			switch l.Event.Kind {
			case obs.KindJobStart:
				if first.IsZero() {
					first = now
				}
			case obs.KindJobFinish:
				last = now
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("stream %s: %w", sub.ID, err)
	}
	streamed := time.Now()
	env, err := c.Report(ctx, sub.ID)
	if err != nil {
		return fmt.Errorf("report %s: %w", sub.ID, err)
	}
	end := time.Now()
	op.total, op.submit, op.report = end.Sub(start), submitted.Sub(start), end.Sub(streamed)
	if !first.IsZero() {
		op.queueWait, op.run, op.finalize = first.Sub(submitted), last.Sub(first), streamed.Sub(last)
	}
	switch {
	case sub.Cached != op.hit:
		return fmt.Errorf("%s: cached=%v, want %v", sub.ID, sub.Cached, op.hit)
	case done.State != api.StateDone:
		return fmt.Errorf("%s: ended %s: %s", sub.ID, done.State, done.Error)
	case env.Report == nil || !env.Report.Ok():
		return fmt.Errorf("%s: report missing or not ok", sub.ID)
	case env.Fingerprint != done.Fingerprint || env.Report.Fingerprint() != env.Fingerprint:
		return fmt.Errorf("%s: fingerprints disagree: stream %s, report %s", sub.ID, done.Fingerprint, env.Fingerprint)
	}
	op.fp, op.rep = env.Fingerprint, env.Report
	return nil
}

// loopClient is one closed-loop caller.
type loopClient struct {
	id     int
	c      *api.Client
	rng    *rand.Rand
	base   uint64 // miss seeds derive from it
	misses []*fleetdOp
	ops    []*fleetdOp
	errs   []error
	n      int // operations started, across segments
}

// loop runs operations of segment seg until the given time. The first
// four alternate miss and hit, so that a short run has both kinds,
// traced and untraced; after that each is a hit with probability 1/2.
// Strict alternation would let the two clients lock into one overlap
// pattern (a miss queued behind the other client's miss, or not) for
// long stretches, which moves the latencies between runs. In a traced
// run, operations 2-3 of every four are traced and the rest give the
// untraced baseline for the overhead.
func (cl *loopClient) loop(ctx context.Context, sz fleetdSize, seg int, until time.Time, trace bool, rss *rssProbe) {
	least := 2
	if trace {
		least = 4
	}
	for ; (cl.n < least || time.Now().Before(until)) && ctx.Err() == nil; cl.n++ {
		i := cl.n
		op := &fleetdOp{traced: trace && (i/2)%2 == 1, seg: seg}
		var want string
		if len(cl.misses) > 0 && (i < 4 && i%2 == 1 || i >= 4 && cl.rng.Intn(2) == 1) {
			lo := max(0, len(cl.misses)-hitWindow)
			m := cl.misses[lo+cl.rng.Intn(len(cl.misses)-lo)]
			op.hit, op.seed, want = true, m.seed, m.fp
		} else {
			op.seed = specSeed(cl.base, uint64(len(cl.misses)))
		}
		err := op.do(ctx, cl.c, fleetdSpec(op.seed, sz))
		if err == nil && op.hit && op.fp != want {
			err = fmt.Errorf("hit on seed %d: fingerprint %s, its miss had %s", op.seed, op.fp, want)
		}
		if err != nil {
			cl.errs = append(cl.errs, fmt.Errorf("client %d: %w", cl.id, err))
			continue
		}
		cl.ops = append(cl.ops, op)
		rss.done()
		if !op.hit {
			cl.misses = append(cl.misses, op)
		}
	}
}

func runFleetdLoopback(ctx context.Context, o options) (*outcome, error) {
	sz := fleetdSizeFor(o.Small)
	out := newOutcome()
	var warm []*fleetdOp

	// Set-up: start a daemon on a fresh checkpoint directory and warm it
	// with one miss and its hit, several times over, each between two
	// host probes; the median is setup_s and the last daemon serves the
	// window.
	var (
		setups, rawSetups []float64
		d                 *daemon
	)
	probe := newHostProbe()
	prev := probe.measure()
	for k := 0; k < fleetdSetupRounds; k++ {
		start := time.Now()
		var err error
		if d, err = startDaemon(o.WorkDir); err != nil {
			return nil, err
		}
		c := api.NewClient(d.base)
		seed := specSeed(o.Seed, uint64(3000+k))
		miss, hit := &fleetdOp{seed: seed}, &fleetdOp{seed: seed, hit: true}
		for _, op := range []*fleetdOp{miss, hit} {
			out.Attempted++
			if err := op.do(ctx, c, fleetdSpec(seed, sz)); err != nil {
				out.fail("warm-up: %v", err)
			}
		}
		if miss.fp != "" {
			warm = append(warm, miss)
		}
		setup := time.Since(start).Seconds()
		next := probe.measure()
		setups = append(setups, setup*probe.scale(prev, next))
		rawSetups = append(rawSetups, setup)
		prev = next
		if k < fleetdSetupRounds-1 {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
	}
	defer func() {
		if d != nil {
			d.stop()
		}
	}()

	admin := api.NewClient(d.base)
	h0, err := admin.Health(ctx)
	if err != nil {
		return nil, err
	}
	clients := make([]*loopClient, fleetdClients)
	for i := range clients {
		clients[i] = &loopClient{
			id:   i,
			c:    api.NewClient(d.base),
			rng:  rand.New(rand.NewSource(int64(arachnet.DeriveFleetSeed(o.Seed, uint64(4000+i))))),
			base: arachnet.DeriveFleetSeed(o.Seed, uint64(2000+i)),
		}
	}
	var (
		rss                rssProbe
		window, normWindow float64 // seconds; normWindow scaled by the probe
		segScale           []float64
	)
	deadline := time.Now().Add(o.Duration)
	for seg := 0; seg == 0 || time.Now().Before(deadline); seg++ {
		start := time.Now()
		until := start.Add(fleetdSegment)
		if until.After(deadline) {
			until = deadline
		}
		var wg sync.WaitGroup
		for _, cl := range clients {
			wg.Add(1)
			go func(cl *loopClient) {
				defer wg.Done()
				cl.loop(ctx, sz, seg, until, o.Trace, &rss)
			}(cl)
		}
		wg.Wait()
		dur := time.Since(start).Seconds()
		next := probe.measure()
		scale := probe.scale(prev, next)
		prev = next
		segScale = append(segScale, scale)
		window += dur
		normWindow += dur * scale
	}
	if rss.mb == 0 {
		fmt.Fprintf(os.Stderr, "fleetd-loopback: fewer than %d operations; peak RSS read at the end of the window\n", rssOps)
		rss.mb = peakRSSMB()
	}
	h1, err := admin.Health(ctx)
	if err != nil {
		return nil, err
	}

	var (
		ops, misses      []*fleetdOp
		missLat, hostLat []float64
		hitLat           []float64
	)
	for _, cl := range clients {
		out.Attempted += len(cl.ops) + len(cl.errs)
		for _, err := range cl.errs {
			out.fail("%v", err)
		}
		ops = append(ops, cl.ops...)
		misses = append(misses, cl.misses...)
		for _, op := range cl.ops {
			scaled := ms(op.total) * segScale[op.seg]
			if op.hit {
				hitLat = append(hitLat, scaled)
			} else {
				missLat = append(missLat, scaled)
				hostLat = append(hostLat, ms(op.total))
			}
		}
	}
	if len(missLat) == 0 || len(hitLat) == 0 {
		return nil, errNoOps
	}

	if o.Trace {
		ckpt, err := timeCheckpointWrites(o.WorkDir, fleetdSpec(misses[0].seed, sz), misses[0])
		if err != nil {
			return nil, err
		}
		out.Layers["fleetd.checkpoint_write_ms"] = ckpt
		fleetdLayers(out, ops, h0, h1)
	}
	err = d.stop()
	d = nil
	if err != nil {
		return nil, err
	}

	// Every miss, warm-ups included, against an in-process run of the
	// same spec.
	for _, op := range append(warm, misses...) {
		f, err := arachnet.UnmarshalFleetJSON(fleetdSpec(op.seed, sz))
		if err != nil {
			return nil, err
		}
		rep, err := f.Run(ctx)
		if err != nil {
			return nil, err
		}
		if fp := rep.Fingerprint(); fp != op.fp {
			out.fail("spec seed %d: daemon fingerprint %s, in-process %s", op.seed, op.fp, fp)
		}
	}
	for i, cl := range clients {
		var first []string
		for j := 0; j < recordedMisses && j < len(cl.misses); j++ {
			first = append(first, cl.misses[j].fp)
		}
		fmt.Fprintf(os.Stderr, "fleetd-loopback: seed %d client %d first misses %q\n", o.Seed, i, first)
		if !o.checkRef() || i >= len(o.Ref.FleetdMisses) {
			continue
		}
		for j, want := range o.Ref.FleetdMisses[i] {
			if j < len(first) && first[j] != want {
				out.fail("client %d miss %d: fingerprint %s, recorded %s", i, j, first[j], want)
			}
		}
	}

	fps := float64(len(ops)) / normWindow
	out.EndToEnd["setup_s"] = median(setups)
	out.EndToEnd["peak_rss_mb"] = rss.mb
	out.EndToEnd["throughput_per_s"] = fps
	out.EndToEnd["latency_p50_ms"] = median(missLat)
	out.EndToEnd["latency_p95_ms"] = quantile(missLat, 0.95)
	out.name("fleets_per_s", fps, "1/s")
	out.name("fleet_report_p50_ms", median(missLat), "ms")
	out.name("fleet_report_p95_ms", quantile(missLat, 0.95), "ms")
	out.name("cache_hit_p50_ms", median(hitLat), "ms")
	out.name("misses", float64(len(missLat)), "count")
	out.name("hits", float64(len(hitLat)), "count")
	out.name("setup_s", median(setups), "s")
	out.name("peak_rss_mb", out.EndToEnd["peak_rss_mb"], "MB")
	out.name("host_fleets_per_s", float64(len(ops))/window, "1/s")
	out.name("host_fleet_report_p50_ms", median(hostLat), "ms")
	out.name("host_setup_s", median(rawSetups), "s")
	out.name("probe_p50_ms", probe.medianMS(), "ms")
	if len(missLat) < 200 {
		fmt.Fprintf(os.Stderr, "fleetd-loopback: only %d misses; fewer than 10 lie beyond p95\n", len(missLat))
	}
	return out, nil
}

// fleetdLayers folds the traced operations and the daemon's health
// counters over the window into per-layer metrics.
func fleetdLayers(out *outcome, ops []*fleetdOp, h0, h1 api.HealthResponse) {
	var submit, report, hit, queue, run, fin, traced, untraced []float64
	for _, op := range ops {
		if !op.traced {
			if !op.hit {
				untraced = append(untraced, ms(op.total))
			}
			continue
		}
		submit = append(submit, ms(op.submit))
		report = append(report, ms(op.report))
		if op.hit {
			hit = append(hit, ms(op.total))
			continue
		}
		traced = append(traced, ms(op.total))
		queue = append(queue, ms(op.queueWait))
		run = append(run, ms(op.run))
		fin = append(fin, ms(op.finalize))
	}
	out.Layers["api.submit_ms"] = median(submit)
	out.Layers["api.report_ms"] = median(report)
	out.Layers["api.cache_hit_ms"] = median(hit)
	out.Layers["fleetd.queue_wait_ms"] = median(queue)
	out.Layers["fleetd.run_ms"] = median(run)
	out.Layers["fleetd.finalize_ms"] = median(fin)
	out.Layers["trace.overhead_share"] = median(traced)/median(untraced) - 1
	n := float64(len(ops))
	out.Layers["fleetd.ckpt_writes_per_fleet"] = float64(h1.Counters["ckpt_writes"]-h0.Counters["ckpt_writes"]) / n
	out.Layers["fleetd.cache_hit_share"] = float64(h1.CacheHits-h0.CacheHits) / n
}

// timeCheckpointWrites times CheckpointStore.Write directly on a fresh
// store, with a done record the size of the workload's, and returns the
// median in milliseconds.
func timeCheckpointWrites(workDir string, spec []byte, op *fleetdOp) (float64, error) {
	dir, err := os.MkdirTemp(workDir, "ckpt-timing-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	store, err := fleetd.NewCheckpointStore(dir)
	if err != nil {
		return 0, err
	}
	repJSON, err := json.Marshal(op.rep)
	if err != nil {
		return 0, err
	}
	var times []float64
	for i := 0; i < ckptWrites; i++ {
		rec := fleetd.Record{
			ID: fmt.Sprintf("job-%06d", i), State: fleetd.StateDoneCkpt,
			Spec: spec, Fingerprint: op.fp, Report: repJSON,
		}
		start := time.Now()
		if err := store.Write(rec); err != nil {
			return 0, err
		}
		times = append(times, ms(time.Since(start)))
	}
	return median(times), nil
}
