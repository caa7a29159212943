package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit. The tables below
// are the benchmark's vocabulary; BENCHMARK.json lists the same names
// (the self-test keeps the two in step).
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are measured untraced, on every workload. What the
// operation behind each latency and throughput is depends on the
// workload (see the workload files and predictions.json).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
}

// experimentNames are the CLI's experiment names, in its order.
var experimentNames = []string{
	"table1", "table2", "table3", "fig11a", "fig11b", "fig12a", "fig12b",
	"fig13a", "fig13b", "fig14", "fig15a", "fig15b", "fig16", "fig17",
	"fig19", "appendixc", "aloha-vs", "ablation-vanilla", "ablation-timer",
	"ablation-empty", "ablation-future", "ablation-nack",
	"ablation-interrupt", "dl-scheme", "multi-reader", "ambient", "budget",
	"crossval", "fig15-net",
}

// rollups group experiments by the module that dominates their cost.
// Experiments not listed fall into energy.misc_s.
var rollups = []struct {
	Name  string
	Names []string
}{
	{"arachnet.network_s", []string{"table2", "fig13a", "fig13b", "fig14", "fig15-net", "crossval"}},
	{"dsp.waveform_s", []string{"fig12a", "fig12b", "dl-scheme"}},
	{"core.markov_s", []string{"appendixc"}},
	{"mac.slotsim_s", []string{"fig15a", "fig15b", "fig16", "fig19", "aloha-vs",
		"ablation-vanilla", "ablation-timer", "ablation-empty", "ablation-future",
		"ablation-nack", "ablation-interrupt", "multi-reader"}},
}

const miscRollup = "energy.misc_s"

// perLayer are reported by the traced run. Every workload reports every
// name; a layer the workload bypasses reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"trace.overhead_share", "ratio"},
		{"arachnet.compile_ms", "ms"},
		{"mac.acquire_us", "us"},
		{"mac.slot_ns", "ns"},
		{"faults.slot_ns", "ns"},
		{"faults.analyze_us", "us"},
		{"fleet.job_busy_share", "ratio"},
		{"fleet.fingerprint_ms", "ms"},
		{"fleet.allocs_per_vehicle", "count"},
		{"fleet.unaccounted_share", "ratio"},
		{"api.submit_ms", "ms"},
		{"api.report_ms", "ms"},
		{"api.cache_hit_ms", "ms"},
		{"fleetd.queue_wait_ms", "ms"},
		{"fleetd.run_ms", "ms"},
		{"fleetd.finalize_ms", "ms"},
		{"fleetd.checkpoint_write_ms", "ms"},
		{"fleetd.ckpt_writes_per_fleet", "count"},
		{"fleetd.cache_hit_share", "ratio"},
	}
	for _, r := range rollups {
		defs = append(defs, metricDef{r.Name, "s"})
	}
	defs = append(defs, metricDef{miscRollup, "s"})
	for _, n := range experimentNames {
		defs = append(defs, metricDef{"experiments." + n + "_s", "s"})
	}
	return defs
}()

// unaccountedMargin is the largest share of the traced sweep's worker
// time the per-layer spans may leave uncovered before the run says the
// layers do not add up.
const unaccountedMargin = 0.10

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the same rule as numpy's default). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB is the largest resident set this process has had.
func peakRSSMB() float64 { return maxRSSMB(syscall.RUSAGE_SELF) }

// maxRSSMB reads ru_maxrss (KiB on Linux) for who.
func maxRSSMB(who int) float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}
