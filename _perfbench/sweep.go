package main

import (
	"context"
	_ "embed"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/arachnet"
	"repro/internal/fleet"
	"repro/internal/mac"
	"repro/internal/obs"
)

// fleet-sweep: the offline Monte Carlo sweep. Each sweep is one
// Fleet.Run over the nine Table 3 patterns, fault-free replicas plus
// chaos replicas carrying the fixed plan in chaos-plan.json, at the
// default worker count. A run cycles through sweepSeeds fleet seeds
// derived from the workload seed; every sweep's fingerprint must equal
// a workers=1 reference computed after the window.

//go:embed chaos-plan.json
var chaosPlanJSON []byte

const (
	sweepSeeds  = 4
	setupRounds = 3
	// sweepChunk mirrors the fleet engine's cancellation poll interval,
	// so the traced path runs the simulator in the same chunks.
	sweepChunk = 512
)

type sweepSize struct{ Replicas, ChaosReplicas, Slots int }

func sweepSizeFor(small bool) sweepSize {
	if small {
		return sweepSize{Replicas: 2, ChaosReplicas: 1, Slots: 600}
	}
	return sweepSize{Replicas: 16, ChaosReplicas: 4, Slots: 10_000}
}

// sweepFleet is one sweep's fleet: c1..c9, each as a fault-free
// vehicle and a chaos vehicle.
func sweepFleet(seed uint64, sz sweepSize, plan *arachnet.FaultPlan) arachnet.Fleet {
	var vs []arachnet.VehicleSpec
	for i := 1; i <= 9; i++ {
		p := fmt.Sprintf("c%d", i)
		vs = append(vs,
			arachnet.VehicleSpec{Name: p, Engine: "slots", Pattern: p, Slots: sz.Slots, Replicate: sz.Replicas},
			arachnet.VehicleSpec{Name: p + "-chaos", Engine: "slots", Pattern: p, Slots: sz.Slots, Replicate: sz.ChaosReplicas, Faults: plan},
		)
	}
	return arachnet.Fleet{Seed: seed, Vehicles: vs}
}

func runFleetSweep(ctx context.Context, o options) (*outcome, error) {
	plan, err := arachnet.UnmarshalFaultPlan(chaosPlanJSON)
	if err != nil {
		return nil, fmt.Errorf("chaos plan: %w", err)
	}
	sz := sweepSizeFor(o.Small)
	seeds := make([]uint64, sweepSeeds)
	for k := range seeds {
		seeds[k] = arachnet.DeriveFleetSeed(o.Seed, uint64(k))
	}
	out := newOutcome()

	// Set-up: build the fleet, compile its snapshots and run one
	// warm-up sweep, several times over, each between two host probes;
	// the median is setup_s.
	probe := newHostProbe()
	prev := probe.measure()
	var setups, rawSetups []float64
	for k := 0; k < setupRounds; k++ {
		start := time.Now()
		rep, err := sweepFleet(arachnet.DeriveFleetSeed(o.Seed, uint64(1000+k)), sz, &plan).Run(ctx)
		if err != nil {
			return nil, err
		}
		d := time.Since(start).Seconds()
		next := probe.measure()
		setups = append(setups, d*probe.scale(prev, next))
		rawSetups = append(rawSetups, d)
		prev = next
		out.Attempted++
		checkSweep(out, rep, "warm-up sweep")
	}

	var tr *sweepTracer
	if o.Trace {
		if tr, err = newSweepTracer(); err != nil {
			return nil, err
		}
	}
	var (
		lat, tracedLat  []float64
		normLat         []float64
		vehicles        int
		sweepTime       time.Duration
		normTime        float64 // seconds, scaled by the host probe
		mallocs         uint64
		measuredVehicle int
		got             = make([][]string, sweepSeeds)
		ms0, ms1        runtime.MemStats
	)
	deadline := time.Now().Add(o.Duration)
	// Odd sweeps of a traced run are traced; the even ones give the
	// untraced baseline for the overhead.
	least := 1
	if tr != nil {
		least = 2
	}
	for i := 0; i < least || time.Now().Before(deadline); i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		k := i % sweepSeeds
		f := sweepFleet(seeds[k], sz, &plan)
		out.Attempted++
		if tr != nil && i%2 == 1 {
			rep, d, err := tr.sweep(ctx, f)
			if err != nil {
				return nil, err
			}
			prev = probe.measure()
			tracedLat = append(tracedLat, ms(d))
			checkSweep(out, rep, fmt.Sprintf("traced sweep %d", i))
			got[k] = append(got[k], rep.Fingerprint())
			continue
		}
		if tr != nil {
			runtime.ReadMemStats(&ms0)
		}
		start := time.Now()
		rep, err := f.Run(ctx)
		d := time.Since(start)
		if err != nil {
			return nil, err
		}
		if tr != nil {
			runtime.ReadMemStats(&ms1)
			mallocs += ms1.Mallocs - ms0.Mallocs
			measuredVehicle += len(rep.Jobs)
		}
		next := probe.measure()
		scale := probe.scale(prev, next)
		prev = next
		lat = append(lat, ms(d))
		normLat = append(normLat, ms(d)*scale)
		sweepTime += d
		normTime += d.Seconds() * scale
		vehicles += len(rep.Jobs)
		checkSweep(out, rep, fmt.Sprintf("sweep %d", i))
		got[k] = append(got[k], rep.Fingerprint())
	}

	// Reference fingerprints at workers=1, outside the timed window.
	for k, s := range seeds {
		f := sweepFleet(s, sz, &plan)
		f.Workers = 1
		rep, err := f.Run(ctx)
		if err != nil {
			return nil, err
		}
		want := rep.Fingerprint()
		for _, fp := range got[k] {
			if fp != want {
				out.fail("sweep seed %d: fingerprint %s, workers=1 reference %s", k, fp, want)
			}
		}
		if o.checkRef() && k < len(o.Ref.SweepFingerprints) && want != o.Ref.SweepFingerprints[k] {
			out.fail("sweep seed %d: reference fingerprint %s, recorded %s", k, want, o.Ref.SweepFingerprints[k])
		}
		fmt.Fprintf(os.Stderr, "fleet-sweep: seed %d sweep %d fingerprint %s\n", o.Seed, k, want)
	}

	if len(lat) == 0 {
		return nil, errNoOps
	}
	vps := float64(vehicles) / normTime
	out.EndToEnd["setup_s"] = median(setups)
	out.EndToEnd["peak_rss_mb"] = peakRSSMB()
	out.EndToEnd["throughput_per_s"] = vps
	out.EndToEnd["latency_p50_ms"] = median(normLat)
	out.EndToEnd["latency_p95_ms"] = quantile(normLat, 0.95)
	out.name("vehicles_per_s", vps, "1/s")
	out.name("sweep_p50_ms", median(normLat), "ms")
	out.name("sweep_p95_ms", quantile(normLat, 0.95), "ms")
	out.name("sweeps", float64(len(lat)), "count")
	out.name("setup_s", median(setups), "s")
	out.name("peak_rss_mb", out.EndToEnd["peak_rss_mb"], "MB")
	out.name("host_vehicles_per_s", float64(vehicles)/sweepTime.Seconds(), "1/s")
	out.name("host_sweep_p50_ms", median(lat), "ms")
	out.name("host_setup_s", median(rawSetups), "s")
	out.name("probe_p50_ms", probe.medianMS(), "ms")

	if tr != nil && len(tracedLat) > 0 {
		tr.report(out)
		out.Layers["fleet.allocs_per_vehicle"] = float64(mallocs) / float64(measuredVehicle)
		out.Layers["trace.overhead_share"] = median(tracedLat)/median(lat) - 1
		u := out.Layers["fleet.unaccounted_share"]
		verdict := "within"
		if u > unaccountedMargin {
			verdict = "OVER"
		}
		fmt.Fprintf(os.Stderr, "fleet-sweep: unaccounted_share %.4f, margin %.2f: %s; trace overhead %.4f\n",
			u, unaccountedMargin, verdict, out.Layers["trace.overhead_share"])
	}
	return out, nil
}

// checkSweep counts a sweep with any non-OK vehicle as failed.
func checkSweep(out *outcome, rep *arachnet.FleetReport, what string) {
	if !rep.Ok() {
		out.fail("%s: %s", what, rep.FirstError())
	}
}

// sweepTracer runs traced sweeps: the fleet's own job list from
// Fleet.Jobs, with each job's run function replaced by one that drives
// the simulator through the same public calls the fleet engine makes
// (fault injector, snapshot acquire, chunked Run, recovery analysis,
// release), timing each call. The traced sweep's fingerprint must match
// the untraced one, which checks that the replacement is faithful.
type sweepTracer struct {
	snaps map[string]*mac.SlotSimSnapshot
	pairs sync.Pool // *chaosPair, as the fleet engine pools them

	mu     sync.Mutex
	spans  sweepSpans
	sweeps []sweepWall
}

// sweepSpans are the per-layer totals over all traced sweeps.
type sweepSpans struct {
	acquire, cleanRun, chaosRun, inject, analyze time.Duration
	vehicles, chaosVehicles                      int
	cleanSlots, chaosSlots                       int
}

// sweepWall is one traced sweep's serial phases and pool wall.
type sweepWall struct {
	compile, pool, fingerprint time.Duration
	workers                    int
	leaf, job                  time.Duration
}

type chaosPair struct {
	sink   *arachnet.MemorySink
	tracer *arachnet.Tracer
}

func newSweepTracer() (*sweepTracer, error) {
	t := &sweepTracer{snaps: map[string]*mac.SlotSimSnapshot{}}
	for _, pt := range mac.Table3Patterns() {
		snap, err := mac.NewSlotSimSnapshot(mac.SlotSimConfig{Pattern: pt})
		if err != nil {
			return nil, err
		}
		t.snaps[pt.Name] = snap
	}
	t.pairs.New = func() any {
		sink := arachnet.NewMemorySink()
		tr := arachnet.NewTracer(sink)
		tr.Mute(obs.KindSlotOpen, obs.KindSlotClose, obs.KindSimEvent, obs.KindDecode)
		return &chaosPair{sink: sink, tracer: tr}
	}
	return t, nil
}

// sweep runs one traced sweep and returns its report and its latency
// (compile plus pool run, the part Fleet.Run covers).
func (t *sweepTracer) sweep(ctx context.Context, f arachnet.Fleet) (*arachnet.FleetReport, time.Duration, error) {
	var w sweepWall
	start := time.Now()
	specs, err := f.Jobs()
	w.compile = time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	idx := 0
	for _, v := range f.Vehicles {
		run := t.jobFunc(t.snaps[v.Pattern], v.Faults, v.Slots, &w)
		for r := 0; r < v.Replicate; r++ {
			specs[idx].Run = run
			idx++
		}
	}
	poolStart := time.Now()
	rep, err := fleet.Run(ctx, fleet.Config{Workers: f.Workers, Seed: f.Seed}, specs)
	w.pool = time.Since(poolStart)
	if err != nil {
		return nil, 0, err
	}
	fpStart := time.Now()
	rep.Fingerprint()
	w.fingerprint = time.Since(fpStart)
	w.workers = rep.Workers
	t.mu.Lock()
	t.sweeps = append(t.sweeps, w)
	t.mu.Unlock()
	return rep, w.compile + w.pool, nil
}

// jobFunc returns the traced run function for one vehicle's replicas.
func (t *sweepTracer) jobFunc(snap *mac.SlotSimSnapshot, plan *arachnet.FaultPlan, slots int, w *sweepWall) fleet.JobFunc {
	numTags := snap.Config().Pattern.NumTags()
	return func(ctx context.Context, job arachnet.FleetJobInfo) (arachnet.FleetResult, error) {
		jobStart := time.Now()
		var (
			sp   sweepSpans
			pair *chaosPair
			inj  *arachnet.FaultInjector
			fsrc mac.FaultSource
			tr   *arachnet.Tracer
		)
		if plan != nil && !plan.Empty() {
			pair = t.pairs.Get().(*chaosPair)
			pair.sink.Reset()
			defer t.pairs.Put(pair)
			tr = pair.tracer
			s := time.Now()
			var err error
			inj, err = arachnet.NewFaultInjector(*plan, job.Seed, numTags, tr)
			sp.inject = time.Since(s)
			if err != nil {
				return arachnet.FleetResult{}, err
			}
			fsrc = inj
		}
		s := time.Now()
		sim := snap.Acquire(job.Seed, tr, fsrc)
		sp.acquire = time.Since(s)
		var run time.Duration
		for sim.SlotsRun < slots {
			if err := ctx.Err(); err != nil {
				snap.Release(sim)
				return arachnet.FleetResult{}, err
			}
			n := sweepChunk
			if rest := slots - sim.SlotsRun; n > rest {
				n = rest
			}
			s := time.Now()
			sim.Run(n)
			run += time.Since(s)
		}
		res := arachnet.FleetResult{
			Metrics: map[string]float64{
				arachnet.FleetMetricNonEmptyRatio:  float64(sim.TruthNonEmpty) / float64(sim.SlotsRun),
				arachnet.FleetMetricCollisionRatio: float64(sim.TruthCollisions) / float64(sim.SlotsRun),
				arachnet.FleetMetricConverged:      0,
			},
			Counters: map[string]uint64{arachnet.FleetCounterSlots: uint64(sim.SlotsRun)},
		}
		if sim.Convergence.Converged() {
			res.Metrics[arachnet.FleetMetricConverged] = 1
			res.Metrics[arachnet.FleetMetricConvergenceSlots] = float64(sim.Convergence.ConvergenceSlot())
		}
		sp.vehicles = 1
		if pair != nil {
			s := time.Now()
			rr := arachnet.AnalyzeRecovery(pair.sink.Events())
			sp.analyze = time.Since(s)
			res.Metrics[arachnet.FleetMetricReconvergeSlots] = float64(rr.ReconvergeSlots)
			res.Metrics[arachnet.FleetMetricSettledChurn] = float64(rr.SettledChurn)
			res.Counters[arachnet.FleetCounterFaultsInjected] = uint64(inj.InjectedTotal())
			res.Counters[arachnet.FleetCounterBrownouts] = uint64(rr.Brownouts)
			sp.chaosRun, sp.chaosSlots, sp.chaosVehicles = run, sim.SlotsRun, 1
		} else {
			sp.cleanRun, sp.cleanSlots = run, sim.SlotsRun
		}
		s = time.Now()
		snap.Release(sim)
		sp.acquire += time.Since(s)
		jobTime := time.Since(jobStart)

		t.mu.Lock()
		t.spans.add(sp)
		w.leaf += sp.acquire + sp.cleanRun + sp.chaosRun + sp.inject + sp.analyze
		w.job += jobTime
		t.mu.Unlock()
		return res, nil
	}
}

func (s *sweepSpans) add(o sweepSpans) {
	s.acquire += o.acquire
	s.cleanRun += o.cleanRun
	s.chaosRun += o.chaosRun
	s.inject += o.inject
	s.analyze += o.analyze
	s.vehicles += o.vehicles
	s.chaosVehicles += o.chaosVehicles
	s.cleanSlots += o.cleanSlots
	s.chaosSlots += o.chaosSlots
}

// report folds the traced sweeps into per-layer metrics.
func (t *sweepTracer) report(out *outcome) {
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := t.spans
	var compile, fingerprint, busy, unaccounted []float64
	for _, w := range t.sweeps {
		compile = append(compile, ms(w.compile))
		fingerprint = append(fingerprint, ms(w.fingerprint))
		capacity := float64(w.workers) * w.pool.Seconds()
		busy = append(busy, w.job.Seconds()/capacity)
		// The sweep wall is compile + pool + fingerprint; the serial
		// phases are covered by their own spans, the pool by the leaf
		// spans spread over its workers.
		wall := (w.compile + w.pool + w.fingerprint).Seconds()
		covered := (w.compile + w.fingerprint).Seconds() + w.leaf.Seconds()/float64(w.workers)
		unaccounted = append(unaccounted, 1-covered/wall)
	}
	out.Layers["arachnet.compile_ms"] = median(compile)
	out.Layers["fleet.fingerprint_ms"] = median(fingerprint)
	out.Layers["fleet.job_busy_share"] = median(busy)
	out.Layers["fleet.unaccounted_share"] = median(unaccounted)
	out.Layers["mac.acquire_us"] = float64(sp.acquire) / float64(time.Microsecond) / float64(sp.vehicles)
	out.Layers["mac.slot_ns"] = float64(sp.cleanRun) / float64(sp.cleanSlots)
	out.Layers["faults.slot_ns"] = float64(sp.chaosRun+sp.inject) / float64(sp.chaosSlots)
	out.Layers["faults.analyze_us"] = float64(sp.analyze) / float64(time.Microsecond) / float64(sp.chaosVehicles)
}
