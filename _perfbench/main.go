// Command perfbench is the repository benchmark. It runs one named
// workload against the public Go API for a fixed time, checks that the
// outputs are correct, and prints one JSON result line:
//
//	perfbench -workload fleet-sweep -seed 1 -seconds 25 -trace 0
//
// Workloads:
//
//	fleet-sweep        in-process Monte Carlo sweeps through Fleet.Run
//	fleetd-loopback    two closed-loop clients against a fleetd daemon on loopback
//	experiments-regen  full arachnet-experiments regenerations, one process each
//
// With -trace 0 the result carries the end-to-end metrics, whose times
// are scaled by a host-speed probe (probe.go); with -trace 1 it carries
// the per-layer metrics, timed around the benchmark's own calls into
// each layer, plus the tracing overhead.
// The line before the result records the host. The command exits 1
// when any correctness check fails. predictions.json states which
// end-to-end metric each per-layer metric should move on which workload.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"
)

//go:embed reference.json
var referenceJSON []byte

// reference holds fingerprints and digests recorded at Seed on the
// code the benchmark was defined against; a run with that seed must
// reproduce them bit for bit. Empty fields are not checked.
type reference struct {
	Seed              uint64     `json:"seed"`
	SweepFingerprints []string   `json:"fleet_sweep_fingerprints"`
	FleetdMisses      [][]string `json:"fleetd_first_miss_fingerprints"`
	RegenDigest       string     `json:"experiments_regen_digest"`
}

// options is one run's configuration.
type options struct {
	Seed     uint64
	Duration time.Duration
	Trace    bool
	// WorkDir receives temporary files (checkpoint directories).
	WorkDir string
	// Small shrinks every workload to a size the self-test can run.
	Small bool
	// Ref holds the recorded values for this size; the seed-dependent
	// ones are compared when Seed == Ref.Seed.
	Ref reference
}

// checkRef reports whether the recorded seed-dependent values apply.
func (o options) checkRef() bool { return o.Seed == o.Ref.Seed }

// outcome is what a workload reports back.
type outcome struct {
	Attempted int
	Failed    int
	Problems  []string
	EndToEnd  map[string]float64
	Layers    map[string]float64
	// Named lists the workload's headline metrics under their own
	// names, for the log line.
	Named []namedValue
}

type namedValue struct {
	Name  string
	Value float64
	Unit  string
}

func newOutcome() *outcome {
	return &outcome{EndToEnd: map[string]float64{}, Layers: map[string]float64{}}
}

// fail counts one failed or wrong operation.
func (o *outcome) fail(format string, args ...any) {
	o.Failed++
	if len(o.Problems) < 8 {
		o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) name(name string, v float64, unit string) {
	o.Named = append(o.Named, namedValue{name, v, unit})
}

type workloadFunc func(ctx context.Context, o options) (*outcome, error)

var workloads = map[string]workloadFunc{
	"fleet-sweep":       runFleetSweep,
	"fleetd-loopback":   runFleetdLoopback,
	"experiments-regen": runRegen,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildResult selects the metric set the mode reports. End-to-end
// metrics must all be present; a per-layer metric the workload did not
// produce is a bypassed layer and reads 0.
func buildResult(out *outcome, trace bool) (result, error) {
	res := result{
		Correct:   out.Failed == 0,
		Attempted: out.Attempted,
		Failed:    out.Failed,
		Metrics:   map[string]metricValue{},
	}
	if trace {
		for _, d := range perLayer {
			res.Metrics[d.Name] = metricValue{out.Layers[d.Name], d.Unit}
		}
		return res, nil
	}
	for _, d := range endToEnd {
		v, ok := out.EndToEnd[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s not measured", d.Name)
		}
		res.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	return res, nil
}

// hostInfo is recorded with every result.
type hostInfo struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go"`
	Kernel     string `json:"kernel"`
}

func host() hostInfo {
	h := hostInfo{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	var u syscall.Utsname
	if err := syscall.Uname(&u); err == nil {
		var b strings.Builder
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b.WriteByte(byte(c))
		}
		h.Kernel = b.String()
	}
	return h
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload to run: fleet-sweep, fleetd-loopback or experiments-regen")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 25, "measured window in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	workDir := flag.String("workdir", ".bench_build", "directory for temporary files")
	regenPass := flag.Int("regen-pass", -1, "internal: run one experiments regeneration pass and exit")
	flag.Parse()

	if *regenPass >= 0 {
		return regenChild(*seed, *regenPass, *trace == 1)
	}
	fn, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: reference.json:", err)
		return 1
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	o := options{
		Seed:     *seed,
		Duration: time.Duration(*seconds) * time.Second,
		Trace:    *trace == 1,
		WorkDir:  *workDir,
		Ref:      ref,
	}
	out, err := fn(ctx, o)
	if err == nil && ctx.Err() != nil {
		err = ctx.Err()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	res, err := buildResult(out, o.Trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	logOutcome(*workload, out)

	hostLine, err := json.Marshal(map[string]hostInfo{"host": host()})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	resLine, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("%s\n%s\n", hostLine, resLine)
	if !res.Correct {
		return 1
	}
	return 0
}

// logOutcome prints the workload's headline metrics under their own
// names, the failed share and any failures to standard error.
func logOutcome(workload string, out *outcome) {
	share := 0.0
	if out.Attempted > 0 {
		share = float64(out.Failed) / float64(out.Attempted)
	}
	fmt.Fprintf(os.Stderr, "%s: attempted=%d failed=%d failed_share=%g\n", workload, out.Attempted, out.Failed, share)
	for _, n := range out.Named {
		fmt.Fprintf(os.Stderr, "  %-28s %12.4f %s\n", n.Name, n.Value, n.Unit)
	}
	for _, p := range out.Problems {
		fmt.Fprintln(os.Stderr, "  FAIL", p)
	}
}

// errNoOps is returned when a window completed no operation at all.
var errNoOps = errors.New("no operation completed in the measured window")
