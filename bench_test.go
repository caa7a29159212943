package repro

// The root benchmark harness. BenchmarkExperiment runs every table,
// figure, ablation and extension of experiments.Catalog, the same list
// arachnet-experiments prints; the paper anchors are pinned, with
// tolerances, by the tests in experiments/. The fleet benchmarks
// measure the fleet pool's scaling, tracing overhead and determinism.

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/arachnet"
	"repro/experiments"
	"repro/internal/fleet"
)

// fleetBenchJobs is the benchmark fleet's population.
const fleetBenchJobs = 64

// fleetBenchSpecs compiles the benchmark fleet: 64 c3 vehicles, 3000
// slots each, on the fast slots engine, under testdata/chaos-plan.json.
// The fault plan keeps every slot stepped: a fault-free vehicle skips
// its steady state, which would leave the gated ratios timing little
// but pool overhead.
func fleetBenchSpecs(b *testing.B) []fleet.JobSpec {
	b.Helper()
	plan := chaosPlan(b)
	f := arachnet.Fleet{
		Seed: 1,
		Vehicles: []arachnet.VehicleSpec{
			{Name: "veh", Pattern: "c3", Slots: 3000, Replicate: fleetBenchJobs, Faults: &plan},
		},
	}
	specs, err := f.Jobs()
	if err != nil {
		b.Fatal(err)
	}
	return specs
}

// chaosPlan loads testdata/chaos-plan.json, a copy of the fleet-sweep
// chaos plan.
func chaosPlan(b *testing.B) arachnet.FaultPlan {
	b.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "chaos-plan.json"))
	if err != nil {
		b.Fatal(err)
	}
	plan, err := arachnet.UnmarshalFaultPlan(data)
	if err != nil {
		b.Fatal(err)
	}
	return plan
}

// runFleetSerial drives the specs through a plain loop — no pool, no
// worker goroutines — and is the baseline every worker count's speedup
// is measured against.
func runFleetSerial(b *testing.B, specs []fleet.JobSpec) {
	b.Helper()
	ctx := context.Background()
	for j, s := range specs {
		if _, err := s.Run(ctx, fleet.JobInfo{Index: j, Name: s.Name, Seed: fleet.DeriveSeed(1, uint64(j))}); err != nil {
			b.Fatal(err)
		}
	}
}

var (
	fleetSerialOnce sync.Once
	fleetSerialTime time.Duration
)

// fleetSerialBaseline times one serial pass over the benchmark fleet,
// cached across sub-benchmarks so every worker count reports its
// speedup against the same baseline.
func fleetSerialBaseline(b *testing.B) time.Duration {
	b.Helper()
	fleetSerialOnce.Do(func() {
		specs := fleetBenchSpecs(b)
		runFleetSerial(b, specs) // warm caches before timing
		start := time.Now()      //lint:allow determinism-taint wall-clock measurement of the serial baseline, not simulation state
		runFleetSerial(b, specs)
		fleetSerialTime = time.Since(start) //lint:allow determinism-taint wall-clock measurement of the serial baseline, not simulation state
	})
	return fleetSerialTime
}

// reportAllocsPerJob converts a MemStats malloc delta over b.N fleets
// into the per-job allocation metric the scaling record tracks.
func reportAllocsPerJob(b *testing.B, m0, m1 *runtime.MemStats) {
	b.Helper()
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(b.N*fleetBenchJobs), "allocs/job")
}

// BenchmarkFleetThroughput measures how the fleet pool scales a 64-job
// fleet over 1/2/4/8 and GOMAXPROCS worker shards. Each op is one
// whole fleet.
// "serial" runs the same pooled job functions in a plain loop (no pool,
// no worker goroutines), so the workers=N sub-benchmarks'
// "speedup-vs-serial" measures scaling alone; they also report
// "jobs/s" and "allocs/job" (expect >= 2x speedup at 4 workers on a 4+
// core machine; on a single-core host the pool can only match serial,
// minus scheduling overhead — the regression this guards is the old
// 0.63x collapse at 8 workers).
func BenchmarkFleetThroughput(b *testing.B) {
	b.Run("serial", func(b *testing.B) {
		specs := fleetBenchSpecs(b)
		runFleetSerial(b, specs) // warm caches outside the timed region
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runFleetSerial(b, specs)
		}
		b.StopTimer()
		runtime.ReadMemStats(&m1)
		reportAllocsPerJob(b, &m0, &m1)
	})
	// workers=gomaxprocs is the point the speedup gate reads: on a host
	// with fewer than 8 CPUs, workers=8 measures oversubscription.
	for _, c := range []struct {
		name    string
		workers int
	}{
		{"workers=1", 1}, {"workers=2", 2}, {"workers=4", 4}, {"workers=8", 8},
		{"workers=gomaxprocs", runtime.GOMAXPROCS(0)},
	} {
		workers := c.workers
		b.Run(c.name, func(b *testing.B) {
			serial := fleetSerialBaseline(b)
			specs := fleetBenchSpecs(b)
			// One warm fleet fills the clone pool so the timed region is
			// the steady state the pool is built for.
			if rep, err := fleet.Run(context.Background(), fleet.Config{Workers: workers, Seed: 1}, specs); err != nil || !rep.Ok() {
				b.Fatalf("warmup: %v %s", err, rep.FirstError())
			}
			var m0, m1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&m0)
			b.ResetTimer()
			start := time.Now() //lint:allow determinism-taint benchmark timing for the speedup-vs-serial metric
			for i := 0; i < b.N; i++ {
				rep, err := fleet.Run(context.Background(), fleet.Config{Workers: workers, Seed: 1}, specs)
				if err != nil {
					b.Fatal(err)
				}
				if !rep.Ok() {
					b.Fatal(rep.FirstError())
				}
			}
			perFleet := time.Since(start) / time.Duration(b.N) //lint:allow determinism-taint benchmark timing for the speedup-vs-serial metric
			b.StopTimer()
			runtime.ReadMemStats(&m1)
			if perFleet > 0 {
				b.ReportMetric(float64(serial)/float64(perFleet), "speedup-vs-serial")
				b.ReportMetric(fleetBenchJobs/perFleet.Seconds(), "jobs/s")
			}
			reportAllocsPerJob(b, &m0, &m1)
		})
	}
}

var (
	untracedFleetOnce sync.Once
	untracedFleetTime time.Duration
)

// untracedFleetBaseline times one pooled, observer-free pass over the
// benchmark fleet at the same worker count the traced sub-benchmarks
// use, cached so every trace encoding reports overhead against the
// same number.
func untracedFleetBaseline(b *testing.B) time.Duration {
	b.Helper()
	untracedFleetOnce.Do(func() {
		specs := fleetBenchSpecs(b)
		cfg := fleet.Config{Workers: 4, Seed: 1}
		if rep, err := fleet.Run(context.Background(), cfg, specs); err != nil || !rep.Ok() {
			b.Fatalf("warmup: %v %s", err, rep.FirstError())
		}
		start := time.Now() //lint:allow determinism-taint wall-clock measurement of the untraced baseline, not simulation state
		if rep, err := fleet.Run(context.Background(), cfg, specs); err != nil || !rep.Ok() {
			b.Fatalf("baseline: %v %s", err, rep.FirstError())
		}
		untracedFleetTime = time.Since(start) //lint:allow determinism-taint wall-clock measurement of the untraced baseline, not simulation state
	})
	return untracedFleetTime
}

// BenchmarkTracedFleet measures what lifecycle tracing costs a 64-job
// fleet run: "untraced" is the floor, "jsonl" and "binary" attach the
// respective file sink (writing to io.Discard, so the metric isolates
// encoding from disk). The traced encodings report
// "overhead-vs-untraced" (1.0 = free); bench-smoke gates the binary
// encoding at <= 1.5x.
func BenchmarkTracedFleet(b *testing.B) {
	for _, mode := range []string{"untraced", arachnet.TraceFormatJSONL, arachnet.TraceFormatBinary} {
		b.Run(mode, func(b *testing.B) {
			specs := fleetBenchSpecs(b)
			cfg := fleet.Config{Workers: 4, Seed: 1}
			var sink *arachnet.StreamSink
			if mode != "untraced" {
				var err error
				sink, err = arachnet.NewTraceFileSink(io.Discard, mode)
				if err != nil {
					b.Fatal(err)
				}
				cfg.Trace = arachnet.NewTracer(sink)
			}
			base := untracedFleetBaseline(b)
			if rep, err := fleet.Run(context.Background(), cfg, specs); err != nil || !rep.Ok() {
				b.Fatalf("warmup: %v %s", err, rep.FirstError())
			}
			b.ResetTimer()
			start := time.Now() //lint:allow determinism-taint benchmark timing for the overhead-vs-untraced metric
			for i := 0; i < b.N; i++ {
				rep, err := fleet.Run(context.Background(), cfg, specs)
				if err != nil {
					b.Fatal(err)
				}
				if !rep.Ok() {
					b.Fatal(rep.FirstError())
				}
			}
			perFleet := time.Since(start) / time.Duration(b.N) //lint:allow determinism-taint benchmark timing for the overhead-vs-untraced metric
			b.StopTimer()
			if sink != nil {
				if err := sink.Close(); err != nil {
					b.Fatal(err)
				}
			}
			if perFleet > 0 {
				b.ReportMetric(fleetBenchJobs/perFleet.Seconds(), "jobs/s")
				if mode != "untraced" && base > 0 {
					b.ReportMetric(float64(perFleet)/float64(base), "overhead-vs-untraced")
				}
			}
		})
	}
}

// BenchmarkVehicle measures one slots vehicle, the unit of the
// fleet-sweep workload: c3 at 10,000 slots, "clean" without faults and
// "chaos" with testdata/chaos-plan.json (a copy of the fleet-sweep
// chaos plan). Each op is one job through the vehicle's pooled job
// function, cycling over 16 job seeds; "allocs/job" is the MemStats
// malloc delta per job, which bench-smoke gates for "chaos".
func BenchmarkVehicle(b *testing.B) {
	plan := chaosPlan(b)
	for _, c := range []struct {
		name   string
		faults *arachnet.FaultPlan
	}{{"clean", nil}, {"chaos", &plan}} {
		b.Run(c.name, func(b *testing.B) {
			f := arachnet.Fleet{Seed: 1, Vehicles: []arachnet.VehicleSpec{
				{Name: "c3-" + c.name, Pattern: "c3", Slots: 10_000, Replicate: 16, Faults: c.faults},
			}}
			specs, err := f.Jobs()
			if err != nil {
				b.Fatal(err)
			}
			runFleetSerial(b, specs) // warm the clone pool
			ctx := context.Background()
			var m0, m1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&m0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % len(specs)
				if _, err := specs[j].Run(ctx, fleet.JobInfo{Index: j, Name: specs[j].Name, Seed: fleet.DeriveSeed(1, uint64(j))}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&m1)
			b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(b.N), "allocs/job")
		})
	}
}

// BenchmarkNetworkSlots runs the default 12-tag event network one slot
// per op after a 100 s warm-up; "allocs/slot" is the MemStats malloc
// delta per slot, which bench-smoke gates.
func BenchmarkNetworkSlots(b *testing.B) {
	net, err := arachnet.NewNetwork(arachnet.DefaultNetworkConfig())
	if err != nil {
		b.Fatal(err)
	}
	net.Run(100 * arachnet.Second)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Run(net.Now() + net.Cfg.SlotDuration)
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(b.N), "allocs/slot")
}

// BenchmarkFleetDeterminism regenerates the fleet fingerprint at both
// extremes of sharding; divergence fails the bench.
func BenchmarkFleetDeterminism(b *testing.B) {
	specs := fleetBenchSpecs(b)
	for i := 0; i < b.N; i++ {
		r1, err := fleet.Run(context.Background(), fleet.Config{Workers: 1, Seed: 1}, specs)
		if err != nil {
			b.Fatal(err)
		}
		r8, err := fleet.Run(context.Background(), fleet.Config{Workers: 8, Seed: 1}, specs)
		if err != nil {
			b.Fatal(err)
		}
		if r1.Fingerprint() != r8.Fingerprint() {
			b.Fatalf("fleet fingerprint diverges: %s vs %s", r1.Fingerprint(), r8.Fingerprint())
		}
	}
}

// BenchmarkExperiment times every entry of experiments.Catalog at the
// CLI's default size and seed 1, one sub-benchmark per name, so each
// times the same work as one table of a full arachnet-experiments run.
// Run with -v to also see the formatted tables.
func BenchmarkExperiment(b *testing.B) {
	for _, e := range experiments.Catalog(1, experiments.DefaultSize) {
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tb, err := e.Run()
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 && testing.Verbose() {
					b.Log("\n" + tb.String())
				}
			}
		})
	}
}
