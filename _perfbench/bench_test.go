package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

// tinyWorkloads runs each workload at its small size; experiments-regen
// runs its passes in-process instead of in child processes.
var tinyWorkloads = map[string]workloadFunc{
	"fleet-sweep":     runFleetSweep,
	"fleetd-loopback": runFleetdLoopback,
	"experiments-regen": func(ctx context.Context, o options) (*outcome, error) {
		return regenWorkload(ctx, o, func(_ context.Context, seed uint64, pass int, traced bool) (passStats, error) {
			start := time.Now()
			res := regenPass(seed, pass, traced, regenSizeFor(true))
			return passStats{
				res:   res,
				wall:  time.Since(start),
				setup: time.Duration(res.ReadyUnixNano - start.UnixNano()),
				rssMB: peakRSSMB(),
			}, nil
		})
	},
}

// layersOf is which per-layer metrics each workload must produce.
var layersOf = map[string][]string{
	"fleet-sweep": {
		"trace.overhead_share", "arachnet.compile_ms", "mac.acquire_us", "mac.slot_ns",
		"faults.slot_ns", "faults.analyze_us", "fleet.job_busy_share", "fleet.fingerprint_ms",
		"fleet.allocs_per_vehicle", "fleet.unaccounted_share",
	},
	"fleetd-loopback": {
		"trace.overhead_share", "api.submit_ms", "api.report_ms", "api.cache_hit_ms",
		"fleetd.queue_wait_ms", "fleetd.run_ms", "fleetd.finalize_ms",
		"fleetd.checkpoint_write_ms", "fleetd.ckpt_writes_per_fleet", "fleetd.cache_hit_share",
	},
}

func init() {
	regen := []string{"trace.overhead_share", miscRollup}
	for _, r := range rollups {
		regen = append(regen, r.Name)
	}
	for _, n := range experimentNames {
		regen = append(regen, "experiments."+n+"_s")
	}
	layersOf["experiments-regen"] = regen
}

func tinyOptions(t *testing.T, trace bool) options {
	return options{Seed: 7, Duration: time.Millisecond, Trace: trace, WorkDir: t.TempDir(), Small: true}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric
// tables in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v; the benchmark has %d", names, len(workloads))
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, tables %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s [%s], table %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
}

// TestExperimentListMatchesNames keeps the experiment list and the
// per-experiment metric names in step.
func TestExperimentListMatchesNames(t *testing.T) {
	exps := experimentList()
	if len(exps) != len(experimentNames) {
		t.Fatalf("%d experiments, %d names", len(exps), len(experimentNames))
	}
	for i, e := range exps {
		if e.name != experimentNames[i] {
			t.Errorf("experiment %d is %s, name table says %s", i, e.name, experimentNames[i])
		}
	}
}

// TestWorkloadsEmitEveryMetric runs every workload tiny, untraced and
// traced, and checks that each reports every metric with its unit.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	covered := map[string]bool{}
	for name, fn := range tinyWorkloads {
		for _, trace := range []bool{false, true} {
			out, err := fn(context.Background(), tinyOptions(t, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if out.Failed != 0 || out.Attempted == 0 {
				t.Errorf("%s trace=%v: attempted %d failed %d: %v", name, trace, out.Attempted, out.Failed, out.Problems)
			}
			res, err := buildResult(out, trace)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, d.Name, m, d.Unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.Name, m.Value)
				}
			}
			if !trace {
				continue
			}
			for _, l := range layersOf[name] {
				if _, ok := out.Layers[l]; !ok {
					t.Errorf("%s: traced run did not measure %s", name, l)
				}
				covered[l] = true
			}
		}
	}
	var missing []string
	for _, d := range perLayer {
		if !covered[d.Name] {
			missing = append(missing, d.Name)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("per-layer metrics no workload measures: %v", missing)
	}
}

// TestChecksCatchWrongReference feeds each workload a deliberately
// wrong recorded fingerprint or digest; the run must count failures and
// report itself incorrect.
func TestChecksCatchWrongReference(t *testing.T) {
	wrong := map[string]reference{
		"fleet-sweep":       {Seed: 7, SweepFingerprints: []string{"0000000000000000"}},
		"fleetd-loopback":   {Seed: 7, FleetdMisses: [][]string{{"0000000000000000"}}},
		"experiments-regen": {Seed: 7, RegenDigest: "00"},
	}
	for name, fn := range tinyWorkloads {
		o := tinyOptions(t, false)
		o.Ref = wrong[name]
		out, err := fn(context.Background(), o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := buildResult(out, false)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: wrong reference not caught: correct=%v failed=%d", name, res.Correct, res.Failed)
		}
	}
}
