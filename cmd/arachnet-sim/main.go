// Command arachnet-sim runs a configurable ARACHNET network simulation
// and prints periodic statistics. Two engines are available:
//
//	-engine=network  full event-level system (default): charging,
//	                 firmware interrupts, PIE demodulation, power
//	-engine=slots    fast slot-level protocol simulator
//
// Examples:
//
//	arachnet-sim -duration 600 -pattern c3
//	arachnet-sim -engine slots -slots 100000 -pattern c5 -seed 7
//	arachnet-sim -pattern c2 -charge   # tags charge from empty
//	arachnet-sim -pattern c3 -trace events.jsonl -metrics
//	arachnet-sim -pattern c3 -trace events.bin -trace-format binary
//	arachnet-sim -engine slots -pattern c7 -faults plan.json
//
// -faults injects the deterministic fault plan (see internal/faults)
// into the run and prints the recovery report when it finishes.
//
// SIGINT/SIGTERM stop the simulation at the next report boundary: the
// trace and metrics sinks are flushed, the partial statistics (and
// recovery report) are printed, and the process exits non-zero.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"repro/arachnet"
)

// stdout carries every report line and keeps its first write error:
// a report lost to a full disk fails the run (exit 1).
var stdout = &errWriter{w: os.Stdout}

func main() {
	engine := flag.String("engine", "network", "simulation engine: network or slots")
	patternName := flag.String("pattern", "c3", "Table 3 workload (c1..c9)")
	seed := flag.Uint64("seed", 1, "random seed")
	duration := flag.Int("duration", 600, "network engine: seconds to simulate")
	slots := flag.Int("slots", 10_000, "slots engine: slots to simulate")
	charge := flag.Bool("charge", false, "network engine: tags charge from empty instead of starting charged")
	report := flag.Int("report", 100, "progress report interval (seconds or slots)")
	configPath := flag.String("config", "", "JSON deployment description (network engine; overrides -pattern/-charge)")
	waveform := flag.Bool("waveform", false, "network engine: decode uplinks with full DSP instead of the link model")
	tracePath := flag.String("trace", "", `write the observability event stream to this file ("-" = stderr)`)
	traceFormat := flag.String("trace-format", "jsonl", "trace encoding: jsonl or binary (convert either way with arachnet-trace -convert)")
	metrics := flag.Bool("metrics", false, "print aggregated event metrics to stderr at exit")
	simEvents := flag.Bool("sim-events", false, "include engine-level sim_event records in the trace (very verbose)")
	faultsPath := flag.String("faults", "", "JSON fault plan to inject (see internal/faults); prints the recovery report at exit")
	flag.Parse()
	if *report <= 0 {
		fmt.Fprintln(os.Stderr, "-report must be positive")
		os.Exit(2)
	}

	var plan *arachnet.FaultPlan
	var rec *arachnet.Recovery
	var recTrace *arachnet.Tracer
	if *faultsPath != "" {
		p, err := arachnet.LoadFaultPlanFile(*faultsPath)
		if err != nil {
			fatal(err)
		}
		plan = &p
		rec, recTrace = arachnet.NewChaosTracer()
	}

	tr, finishTrace, err := setupTrace(*tracePath, *traceFormat, *metrics, recTrace)
	if err != nil {
		fatal(err)
	}
	if !*simEvents {
		// Event-level runs fire thousands of engine events per simulated
		// second; keep the stream at protocol/energy granularity.
		tr.Mute(arachnet.TraceSimEvent)
	}

	// A signal stops the run at the next report boundary; sinks still
	// flush and partial results still print.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	run := func() {
		if *configPath != "" {
			cfg, err := arachnet.LoadConfigFile(*configPath)
			if err != nil {
				fatal(err)
			}
			cfg.Seed = *seed
			cfg.WaveformDecode = *waveform
			cfg.Trace = tr
			runNetworkConfig(ctx, cfg, plan, *duration, *report)
			return
		}

		pattern, ok := arachnet.Table3Pattern(*patternName)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown pattern %q (c1..c9)\n", *patternName)
			os.Exit(2)
		}

		switch *engine {
		case "network":
			runNetwork(ctx, pattern, plan, *seed, *duration, *charge, *waveform, *report, tr)
		case "slots":
			runSlots(ctx, pattern, plan, *seed, *slots, *report, tr)
		default:
			fmt.Fprintf(os.Stderr, "unknown engine %q\n", *engine)
			os.Exit(2)
		}
	}
	run()

	if rec != nil {
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, rec.Report().String())
	}
	finishTrace()
	if stdout.err != nil {
		fatal(stdout.err)
	}
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "interrupted: partial results above")
		os.Exit(1)
	}
}

// setupTrace builds the tracer for the -trace / -trace-format /
// -metrics flags, forwarding to the chaos tracer (arachnet.NewChaosTracer)
// when a fault plan is loaded. The returned finish function flushes the
// (buffered) trace sink, closes the trace file, and prints the metrics
// snapshot; it exits non-zero on a truncated trace.
func setupTrace(path, format string, metrics bool, recTrace *arachnet.Tracer) (*arachnet.Tracer, func(), error) {
	if path == "" && !metrics && recTrace == nil {
		return nil, func() {}, nil
	}
	var sinks []arachnet.TraceSink
	var trace *arachnet.StreamSink
	if path != "" {
		var err error
		trace, err = arachnet.CreateTraceFile(path, format)
		if err != nil {
			return nil, nil, err
		}
		sinks = append(sinks, trace)
	}
	if recTrace != nil {
		sinks = append(sinks, recTrace)
	}
	var census *arachnet.TraceMetrics
	if metrics {
		census = arachnet.NewTraceMetrics()
		sinks = append(sinks, census)
	}
	finish := func() {
		if trace != nil {
			if err := trace.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "trace:", err)
				os.Exit(1)
			}
		}
		if census != nil {
			fmt.Fprintln(os.Stderr, census.Snapshot())
		}
	}
	return arachnet.NewTracer(sinks...), finish, nil
}

func runNetwork(ctx context.Context, pattern arachnet.Pattern, plan *arachnet.FaultPlan, seed uint64, duration int, charge, waveform bool, report int, tr *arachnet.Tracer) {
	cfg := arachnet.NetworkConfig{Seed: seed, WaveformDecode: waveform, Trace: tr}
	for i, p := range pattern.Periods {
		cfg.Tags = append(cfg.Tags, arachnet.TagSpec{
			TID: uint8(i + 1), Period: p, StartCharged: !charge,
		})
	}
	fmt.Fprintf(stdout, "event-level network: pattern %s (U=%.3f, %d tags), %d s\n",
		pattern.Name, pattern.Utilization(), pattern.NumTags(), duration)
	runNetworkConfig(ctx, cfg, plan, duration, report)
}

func runNetworkConfig(ctx context.Context, cfg arachnet.NetworkConfig, plan *arachnet.FaultPlan, duration, report int) {
	net, err := arachnet.NewNetwork(cfg)
	if err != nil {
		fatal(err)
	}
	if plan != nil && !plan.Empty() {
		inj, err := net.AttachFaults(*plan, cfg.Seed)
		if err != nil {
			fatal(err)
		}
		defer func() { fmt.Fprintf(stdout, "faults injected: %s\n", arachnet.FaultCensusString(inj)) }()
	}
	for t := 0; t < duration; {
		if ctx.Err() != nil {
			break
		}
		t = min(t+report, duration)
		net.Run(arachnet.Time(t) * arachnet.Second)
		st := net.Stats()
		fmt.Fprintf(stdout, "t=%4ds slots=%5d decoded=%5d non-empty=%.3f collisions=%.3f converged=%v\n",
			t, st.Slots, st.Decoded, st.NonEmptyRatio, st.CollisionRatio, st.Converged)
	}
	fmt.Fprintln(stdout)
	fmt.Fprintln(stdout, net.Stats())
}

func runSlots(ctx context.Context, pattern arachnet.Pattern, plan *arachnet.FaultPlan, seed uint64, slots, report int, tr *arachnet.Tracer) {
	cfg := arachnet.SlotSimConfig{Pattern: pattern, Seed: seed, Trace: tr}
	var inj *arachnet.FaultInjector
	if plan != nil && !plan.Empty() {
		var err error
		inj, err = arachnet.NewFaultInjector(*plan, seed, pattern.NumTags(), tr)
		if err != nil {
			fatal(err)
		}
		cfg.Faults = inj
	}
	s, err := arachnet.NewSlotSim(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(stdout, "slot-level simulator: pattern %s (U=%.3f, %d tags), %d slots\n",
		pattern.Name, pattern.Utilization(), pattern.NumTags(), slots)
	for done := 0; done < slots; {
		if ctx.Err() != nil {
			break
		}
		n := report
		if done+n > slots {
			n = slots - done
		}
		s.Run(n)
		done += n
		fmt.Fprintf(stdout, "slot %6d: non-empty=%.3f collisions=%.3f converged=%v settled=%v\n",
			done, s.Window.AverageNonEmptyRatio(), s.Window.AverageCollisionRatio(),
			s.Convergence.Converged(), s.AllSettled())
	}
	conv := "never"
	if s.Convergence.Converged() {
		conv = fmt.Sprintf("slot %d", s.Convergence.ConvergenceSlot())
	}
	fmt.Fprintf(stdout, "\nfirst convergence: %s; ground truth: %d non-empty, %d collision slots\n",
		conv, s.TruthNonEmpty, s.TruthCollisions)
	if inj != nil {
		fmt.Fprintf(stdout, "faults injected: %s\n", arachnet.FaultCensusString(inj))
	}
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
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
