package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"time"

	"repro/arachnet"
	"repro/experiments"
)

// experiments-regen: full regenerations of every table and figure
// arachnet-experiments prints, at its default sizes and seed, each in a
// fresh process as a user running the CLI pays for it (cold caches
// included). The workload seed only orders the experiments within a
// pass; the digest of all table text, taken in the CLI's order and
// byte-identical to the CLI's standard output, must not change across
// passes or orders and must match the recorded one. The pass process
// runs a host probe between experiments and scales each experiment's
// time by the probes around it; this process runs one between passes
// and scales the rest of the pass (process start and exit) by those.

// regenSeed is the CLI's default -seed.
const regenSeed = 1

type regenSize struct{ Seeds, Packets, Slots int }

// regenSizeFor mirrors the CLI's default and -quick sizes.
func regenSizeFor(small bool) regenSize {
	if small {
		return regenSize{Seeds: 7, Packets: 200, Slots: 2000}
	}
	return regenSize{Seeds: 21, Packets: 1000, Slots: 10_000}
}

type experiment struct {
	name string
	run  func(sz regenSize) (experiments.Table, error)
}

// experimentList calls the same experiments.Run* functions with the
// same arguments as cmd/arachnet-experiments, in its order.
func experimentList() []experiment {
	const seed = regenSeed
	return []experiment{
		{"table1", func(regenSize) (experiments.Table, error) { _, tb, err := experiments.RunTable1(); return tb, err }},
		{"table2", func(regenSize) (experiments.Table, error) { _, tb, err := experiments.RunTable2(seed); return tb, err }},
		{"table3", func(regenSize) (experiments.Table, error) { _, tb := experiments.RunTable3(); return tb, nil }},
		{"fig11a", func(regenSize) (experiments.Table, error) { _, tb, err := experiments.RunFig11a(); return tb, err }},
		{"fig11b", func(regenSize) (experiments.Table, error) { _, tb, err := experiments.RunFig11b(); return tb, err }},
		{"fig12a", func(regenSize) (experiments.Table, error) { _, tb, err := experiments.RunFig12a(seed); return tb, err }},
		{"fig12b", func(sz regenSize) (experiments.Table, error) {
			_, tb, err := experiments.RunFig12b(seed, sz.Packets)
			return tb, err
		}},
		{"fig13a", func(sz regenSize) (experiments.Table, error) {
			_, tb, err := experiments.RunFig13a(seed, sz.Packets)
			return tb, err
		}},
		{"fig13b", func(regenSize) (experiments.Table, error) { _, tb, err := experiments.RunFig13b(seed); return tb, err }},
		{"fig14", func(regenSize) (experiments.Table, error) { _, tb, err := experiments.RunFig14(seed); return tb, err }},
		{"fig15a", func(sz regenSize) (experiments.Table, error) {
			_, tb, err := experiments.RunFig15a(sz.Seeds)
			return tb, err
		}},
		{"fig15b", func(sz regenSize) (experiments.Table, error) {
			_, tb, err := experiments.RunFig15b(sz.Seeds)
			return tb, err
		}},
		{"fig16", func(sz regenSize) (experiments.Table, error) {
			_, tb, err := experiments.RunFig16(seed, sz.Slots)
			return tb, err
		}},
		{"fig17", func(regenSize) (experiments.Table, error) { _, tb, err := experiments.RunFig17(); return tb, err }},
		{"fig19", func(regenSize) (experiments.Table, error) { _, tb, err := experiments.RunFig19(seed); return tb, err }},
		{"appendixc", func(regenSize) (experiments.Table, error) { return experiments.RunAppendixC() }},
		{"aloha-vs", func(sz regenSize) (experiments.Table, error) {
			return experiments.RunAlohaVsDistributed(seed, sz.Slots)
		}},
		{"ablation-vanilla", func(sz regenSize) (experiments.Table, error) {
			return experiments.RunAblationVanillaVsDistributed(seed, sz.Slots, 0.001)
		}},
		{"ablation-timer", func(sz regenSize) (experiments.Table, error) {
			return experiments.RunAblationBeaconLossTimer(seed, sz.Slots, 0.005)
		}},
		{"ablation-empty", func(sz regenSize) (experiments.Table, error) { return experiments.RunAblationEmptyGate(sz.Seeds / 2) }},
		{"ablation-future", func(sz regenSize) (experiments.Table, error) {
			return experiments.RunAblationFutureCollision(sz.Seeds / 2)
		}},
		{"ablation-nack", func(sz regenSize) (experiments.Table, error) {
			return experiments.RunAblationNackThreshold(seed, sz.Slots)
		}},
		{"ablation-interrupt", func(regenSize) (experiments.Table, error) { return experiments.RunAblationInterruptDriven(), nil }},
		{"dl-scheme", func(sz regenSize) (experiments.Table, error) {
			_, tb, err := experiments.RunDLSchemeStudy(seed, sz.Packets/2)
			return tb, err
		}},
		{"multi-reader", func(sz regenSize) (experiments.Table, error) { return experiments.RunMultiReaderStudy(seed, sz.Slots) }},
		{"ambient", func(regenSize) (experiments.Table, error) { return experiments.RunAmbientHarvestStudy() }},
		{"budget", func(regenSize) (experiments.Table, error) { return experiments.RunBudgetTable() }},
		{"crossval", func(sz regenSize) (experiments.Table, error) {
			return experiments.RunModeCrossValidation(seed, sz.Slots/10)
		}},
		{"fig15-net", func(sz regenSize) (experiments.Table, error) { return experiments.RunFig15Network(seed, sz.Seeds/2) }},
	}
}

// passResult is one regeneration pass's report.
type passResult struct {
	// ReadyUnixNano is the wall clock when the first experiment started.
	ReadyUnixNano int64  `json:"ready_unix_ns"`
	Digest        string `json:"digest"`
	// Spans are per-experiment seconds (traced passes only).
	Spans  map[string]float64 `json:"spans,omitempty"`
	Errors []string           `json:"errors,omitempty"`
	// RunSeconds is the experiments' host time, ScaledSeconds the same
	// scaled by the host probes around each experiment, and
	// ProbeSeconds the time the probes took.
	RunSeconds    float64 `json:"run_s"`
	ScaledSeconds float64 `json:"scaled_s"`
	ProbeSeconds  float64 `json:"probe_s"`
}

// regenPass runs every experiment once, in an order drawn from (seed,
// pass), and digests the tables as the CLI prints them, in its order.
func regenPass(seed uint64, pass int, traced bool, sz regenSize) passResult {
	res := passResult{ReadyUnixNano: time.Now().UnixNano()}
	if traced {
		res.Spans = map[string]float64{}
	}
	exps := experimentList()
	order := rand.New(rand.NewSource(int64(arachnet.DeriveFleetSeed(seed, uint64(pass))))).Perm(len(exps))
	text := make([]string, len(exps))
	probeStart := time.Now()
	probe := newHostProbe()
	prev := probe.measure()
	res.ProbeSeconds = time.Since(probeStart).Seconds()
	for _, i := range order {
		e := exps[i]
		start := time.Now()
		tb, err := e.run(sz)
		d := time.Since(start).Seconds()
		next := probe.measure()
		res.ProbeSeconds += probe.times[next].Seconds()
		res.RunSeconds += d
		res.ScaledSeconds += d * probe.scale(prev, next)
		prev = next
		if traced {
			res.Spans[e.name] = d
		}
		if err != nil {
			res.Errors = append(res.Errors, fmt.Sprintf("%s: %v", e.name, err))
			continue
		}
		text[i] = tb.String() + "\n"
	}
	h := sha256.New()
	for _, t := range text {
		h.Write([]byte(t))
	}
	res.Digest = hex.EncodeToString(h.Sum(nil))
	return res
}

// regenChild is the -regen-pass entry point: one full-size pass, its
// result as JSON on standard output.
func regenChild(seed uint64, pass int, traced bool) int {
	res := regenPass(seed, pass, traced, regenSizeFor(false))
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// passStats is one pass as the parent measured it.
type passStats struct {
	res   passResult
	wall  time.Duration
	setup time.Duration // process start until the first experiment
	rssMB float64
}

// passRunner runs one regeneration pass.
type passRunner func(ctx context.Context, seed uint64, pass int, traced bool) (passStats, error)

// childPass runs the pass in a fresh process of this binary.
func childPass(ctx context.Context, seed uint64, pass int, traced bool) (passStats, error) {
	exe, err := os.Executable()
	if err != nil {
		return passStats{}, err
	}
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-regen-pass", strconv.Itoa(pass),
		"-seed", strconv.FormatUint(seed, 10), "-trace", tr)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return passStats{}, fmt.Errorf("regeneration pass %d: %w", pass, err)
	}
	st := passStats{wall: time.Since(start)}
	if err := json.Unmarshal(stdout.Bytes(), &st.res); err != nil {
		return passStats{}, fmt.Errorf("regeneration pass %d: %w", pass, err)
	}
	st.setup = time.Duration(st.res.ReadyUnixNano - start.UnixNano())
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		st.rssMB = float64(ru.Maxrss) / 1024
	}
	return st, nil
}

func runRegen(ctx context.Context, o options) (*outcome, error) {
	return regenWorkload(ctx, o, childPass)
}

func regenWorkload(ctx context.Context, o options, runPass passRunner) (*outcome, error) {
	out := newOutcome()
	var (
		walls, traced, untraced, setups []float64
		hostWalls, rss                  []float64
		digest                          string
		spans                           = map[string][]float64{}
	)
	probe := newHostProbe()
	prev := probe.measure()
	deadline := time.Now().Add(o.Duration)
	// Odd passes of a traced run are traced; the even ones give the
	// untraced baseline for the overhead.
	least := 1
	if o.Trace {
		least = 2
	}
	for pass := 0; pass < least || time.Now().Before(deadline); pass++ {
		tr := o.Trace && pass%2 == 1
		st, err := runPass(ctx, o.Seed, pass, tr)
		if err != nil {
			return nil, err
		}
		next := probe.measure()
		scale := probe.scale(prev, next)
		prev = next
		out.Attempted++
		switch {
		case len(st.res.Errors) > 0:
			out.fail("pass %d: %v", pass, st.res.Errors)
		case digest != "" && st.res.Digest != digest:
			out.fail("pass %d: table digest %s, first pass %s", pass, st.res.Digest, digest)
		case o.Ref.RegenDigest != "" && st.res.Digest != o.Ref.RegenDigest:
			out.fail("pass %d: table digest %s, recorded %s", pass, st.res.Digest, o.Ref.RegenDigest)
		}
		if digest == "" {
			digest = st.res.Digest
		}
		// The pass wall less its probes is what the CLI would take.
		hostWall := st.wall.Seconds() - st.res.ProbeSeconds
		rest := hostWall - st.res.RunSeconds
		walls = append(walls, 1000*(st.res.ScaledSeconds+rest*scale))
		hostWalls = append(hostWalls, 1000*hostWall)
		setups = append(setups, st.setup.Seconds()*scale)
		rss = append(rss, st.rssMB)
		if tr {
			traced = append(traced, 1000*hostWall)
			for name, s := range st.res.Spans {
				spans[name] = append(spans[name], s)
			}
		} else {
			untraced = append(untraced, 1000*hostWall)
		}
	}
	fmt.Fprintf(os.Stderr, "experiments-regen: table digest %s\n", digest)

	var total float64
	for _, w := range walls {
		total += w / 1000
	}
	tps := float64(len(experimentNames)*len(walls)) / total
	out.EndToEnd["setup_s"] = median(setups)
	// Each pass's peak varies with how its parallel trials overlap; the
	// median over passes is steadier than the largest.
	out.EndToEnd["peak_rss_mb"] = median(rss)
	out.EndToEnd["throughput_per_s"] = tps
	out.EndToEnd["latency_p50_ms"] = median(walls)
	out.EndToEnd["latency_p95_ms"] = quantile(walls, 0.95)
	out.name("regen_wall_s", median(walls)/1000, "s")
	out.name("tables_per_s", tps, "1/s")
	out.name("passes", float64(len(walls)), "count")
	out.name("setup_s", median(setups), "s")
	out.name("peak_rss_mb", median(rss), "MB")
	out.name("host_regen_wall_s", median(hostWalls)/1000, "s")
	out.name("probe_p50_ms", probe.medianMS(), "ms")

	if len(traced) > 0 {
		grouped := map[string]bool{}
		for _, r := range rollups {
			var sum float64
			for _, n := range r.Names {
				sum += median(spans[n])
				grouped[n] = true
			}
			out.Layers[r.Name] = sum
		}
		for _, n := range experimentNames {
			v := median(spans[n])
			out.Layers["experiments."+n+"_s"] = v
			if !grouped[n] {
				out.Layers[miscRollup] += v
			}
		}
		out.Layers["trace.overhead_share"] = median(traced)/median(untraced) - 1
	}
	return out, nil
}
