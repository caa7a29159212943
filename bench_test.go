package repro

// The benchmark harness: one testing.B target per table and figure of
// the paper's evaluation, plus one per DESIGN.md ablation. Each bench
// regenerates its experiment end to end and reports the headline
// metrics via b.ReportMetric, so `go test -bench=.` doubles as the
// reproduction record. Run with -v to also see the formatted tables.
//
// Shape anchors from the paper appear in the reported metric names
// (e.g. paper 81.2% non-empty ratio -> "nonempty-ratio").

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/arachnet"
	"repro/experiments"
	"repro/internal/fleet"
)

// logTable prints the experiment table under -v.
func logTable(b *testing.B, tb experiments.Table) {
	b.Helper()
	b.Log("\n" + tb.String())
}

// fleetBenchJobs is the benchmark fleet's population.
const fleetBenchJobs = 64

// fleetBenchSpecs compiles the benchmark fleet: 64 c3 vehicles, 3000
// slots each, on the fast slots engine.
func fleetBenchSpecs(b *testing.B) []fleet.JobSpec {
	b.Helper()
	f := arachnet.Fleet{
		Seed: 1,
		Vehicles: []arachnet.VehicleSpec{
			{Name: "veh", Pattern: "c3", Slots: 3000, Replicate: fleetBenchJobs},
		},
	}
	specs, err := f.Jobs()
	if err != nil {
		b.Fatal(err)
	}
	return specs
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
// fleet over 1/2/4/8 worker shards. Each op is one whole fleet.
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
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
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
			var sink arachnet.TraceFileSink
			if mode != "untraced" {
				var err error
				sink, err = arachnet.NewTraceFileSink(io.Discard, mode)
				if err != nil {
					b.Fatal(err)
				}
				cfg.Observer = fleet.NewTracerObserver(arachnet.NewTracer(sink))
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

func BenchmarkTable1VanillaAllocation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, tb, err := experiments.RunTable1()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, tb)
		}
	}
}

func BenchmarkTable2PowerConsumption(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, tb, err := experiments.RunTable2(uint64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, tb)
			for _, r := range rows {
				b.ReportMetric(r.TotalMicrowatt, r.Mode+"-uW")
			}
		}
	}
}

func BenchmarkTable3Patterns(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pats, tb := experiments.RunTable3()
		if i == 0 {
			logTable(b, tb)
			b.ReportMetric(float64(len(pats)), "patterns")
		}
	}
}

func BenchmarkFig11aAmplifiedVoltage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, tb, err := experiments.RunFig11a()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, tb)
			b.ReportMetric(rows[3].Vdd[8], "tag4-16x-V")   // paper: 4.74
			b.ReportMetric(rows[10].Vdd[8], "tag11-16x-V") // paper: 2.70
		}
	}
}

func BenchmarkFig11bChargingTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, tb, err := experiments.RunFig11b()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, tb)
			min, max := rows[0].ChargeSeconds, rows[0].ChargeSeconds
			for _, r := range rows {
				if r.ChargeSeconds < min {
					min = r.ChargeSeconds
				}
				if r.ChargeSeconds > max {
					max = r.ChargeSeconds
				}
			}
			b.ReportMetric(min, "fastest-s") // paper: 4.5
			b.ReportMetric(max, "slowest-s") // paper: 56.2
		}
	}
}

func BenchmarkFig12aUplinkSNR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, tb, err := experiments.RunFig12a(uint64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, tb)
			for _, c := range cells {
				if c.Tag == 8 && c.Rate == 3000 {
					b.ReportMetric(c.SNRdB, "tag8-3000bps-dB") // paper: 11.7
				}
			}
		}
	}
}

func BenchmarkFig12bUplinkLoss(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, tb, err := experiments.RunFig12b(uint64(i+1), 1000)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, tb)
			worst := 0.0
			for _, c := range cells {
				if c.LossPct > worst {
					worst = c.LossPct
				}
			}
			b.ReportMetric(worst, "worst-loss-pct") // paper: < 0.5
		}
	}
}

func BenchmarkFig13aDownlinkLoss(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, tb, err := experiments.RunFig13a(uint64(i+1), 300)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, tb)
			var low, high float64
			for _, c := range cells {
				switch c.Rate {
				case 250:
					low += c.LossPct / 3
				case 2000:
					high += c.LossPct / 3
				}
			}
			b.ReportMetric(low, "loss-250bps-pct")
			b.ReportMetric(high, "loss-2000bps-pct") // paper: cliff
		}
	}
}

func BenchmarkFig13bSyncOffset(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, tb, err := experiments.RunFig13b(uint64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, tb)
			worst := 0.0
			for _, r := range rows {
				if r.MaxAbsMs > worst {
					worst = r.MaxAbsMs
				}
			}
			b.ReportMetric(worst, "max-offset-ms") // paper: < 5.0
		}
	}
}

func BenchmarkFig14PingPong(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, tb, err := experiments.RunFig14(uint64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, tb)
			b.ReportMetric(res.Stage2P99Ms, "stage2-p99-ms") // paper: 281.9
			b.ReportMetric(res.Stage1MedianMs, "stage1-median-ms")
		}
	}
}

func BenchmarkFig15aConvergenceFixedTags(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, tb, err := experiments.RunFig15a(9)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, tb)
			b.ReportMetric(float64(rows[0].MedianSlots), "c1-median-slots") // paper: 139
			b.ReportMetric(float64(rows[4].MedianSlots), "c5-median-slots") // paper: 1712
		}
	}
}

func BenchmarkFig15bConvergenceFixedUtil(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, tb, err := experiments.RunFig15b(9)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, tb)
			b.ReportMetric(float64(rows[0].MedianSlots), "c2-median-slots")
		}
	}
}

func BenchmarkFig16LongRunning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, tb, err := experiments.RunFig16(uint64(i+1), 10_000)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, tb)
			b.ReportMetric(100*res.AvgNonEmptyRatio, "nonempty-pct") // paper: 81.2
			b.ReportMetric(res.AvgCollisionRatio, "collision-ratio") // paper: 0.056
			b.ReportMetric(100*res.TheoreticalBound, "bound-pct")    // 84.375
		}
	}
}

func BenchmarkFig17Strain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, tb, err := experiments.RunFig17()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, tb)
			b.ReportMetric(float64(len(points)), "points")
		}
	}
}

func BenchmarkFig19Aloha(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, tb, err := experiments.RunFig19(uint64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, tb)
			b.ReportMetric(res.CollisionFreePct, "collision-free-pct")
			b.ReportMetric(float64(res.PerTag[7].Total), "tag8-tx") // paper: >11,000
		}
	}
}

func BenchmarkAppendixCVerification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := experiments.RunAppendixC()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, tb)
		}
	}
}

func BenchmarkAblationVanillaVsDistributed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := experiments.RunAblationVanillaVsDistributed(uint64(i+1), 10_000, 0.001)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, tb)
		}
	}
}

func BenchmarkAblationBeaconLossTimer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := experiments.RunAblationBeaconLossTimer(uint64(i+1), 10_000, 0.005)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, tb)
		}
	}
}

func BenchmarkAblationEmptyGate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := experiments.RunAblationEmptyGate(6)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, tb)
		}
	}
}

func BenchmarkAblationFutureCollision(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := experiments.RunAblationFutureCollision(6)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, tb)
		}
	}
}

func BenchmarkAblationNackThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := experiments.RunAblationNackThreshold(uint64(i+1), 10_000)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, tb)
		}
	}
}

func BenchmarkAblationInterruptDriven(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := experiments.RunAblationInterruptDriven()
		if i == 0 {
			logTable(b, tb)
		}
	}
}

func BenchmarkAblationDLScheme(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, tb, err := experiments.RunDLSchemeStudy(uint64(i+1), 300)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, tb)
			for _, c := range cells {
				if c.Rate == 1000 {
					name := "fsk-1000bps-loss-pct"
					if c.Scheme[0] == 'O' {
						name = "ook-1000bps-loss-pct"
					}
					b.ReportMetric(c.LossPct, name)
				}
			}
		}
	}
}

func BenchmarkExtensionMultiReader(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := experiments.RunMultiReaderStudy(uint64(i+1), 10_000)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, tb)
		}
	}
}

func BenchmarkFig15NetworkCrossCheck(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := experiments.RunFig15Network(uint64(i+1), 5)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, tb)
		}
	}
}

func BenchmarkCrossValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := experiments.RunModeCrossValidation(uint64(i+1), 600)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, tb)
		}
	}
}

func BenchmarkExtensionAmbientHarvest(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := experiments.RunAmbientHarvestStudy()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, tb)
		}
	}
}
