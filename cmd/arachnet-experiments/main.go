// Command arachnet-experiments regenerates every table and figure of
// the paper's evaluation. By default it runs the full set; pass
// experiment names to run a subset:
//
//	arachnet-experiments                    # everything
//	arachnet-experiments fig15 fig16        # just those
//	arachnet-experiments -list              # show available names
//	arachnet-experiments -seed 7 -quick t2  # smaller, faster variants
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/arachnet"
	"repro/experiments"
	"repro/internal/prof"
)

func main() {
	os.Exit(run())
}

func run() (code int) {
	seed := flag.Uint64("seed", 1, "random seed for all experiments")
	quick := flag.Bool("quick", false, "smaller sample counts (faster, noisier)")
	list := flag.Bool("list", false, "list experiment names and exit")
	format := flag.String("format", "table", "output format: table or csv")
	workers := flag.Int("workers", 0, "Monte Carlo trial fan-out (0 = GOMAXPROCS; results are identical for any width)")
	tracePath := flag.String("trace", "", `write fleet-sweep lifecycle events to this file ("-" = stderr)`)
	traceFormat := flag.String("trace-format", "jsonl", "trace encoding: jsonl or binary")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()

	experiments.SetWorkers(*workers)
	if *tracePath != "" {
		sink, err := arachnet.CreateTraceFile(*tracePath, *traceFormat)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		experiments.SetTrace(arachnet.NewTracer(sink))
		// A truncated trace fails the run (exit 1).
		defer func() {
			experiments.SetTrace(nil)
			if err := sink.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "trace:", err)
				code = 1
			}
		}()
	}
	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}()

	seeds := 21
	packets := 1000
	slots := 10_000
	if *quick {
		seeds, packets, slots = 7, 200, 2000
	}

	type experiment struct {
		name string
		desc string
		run  func() (experiments.Table, error)
	}
	exps := []experiment{
		{"table1", "vanilla slot allocation example", func() (experiments.Table, error) {
			_, tb, err := experiments.RunTable1()
			return tb, err
		}},
		{"table2", "tag power by mode", func() (experiments.Table, error) {
			_, tb, err := experiments.RunTable2(*seed)
			return tb, err
		}},
		{"table3", "evaluation workloads", func() (experiments.Table, error) {
			_, tb := experiments.RunTable3()
			return tb, nil
		}},
		{"fig11a", "amplified voltage vs stages", func() (experiments.Table, error) {
			_, tb, err := experiments.RunFig11a()
			return tb, err
		}},
		{"fig11b", "charging time and net power", func() (experiments.Table, error) {
			_, tb, err := experiments.RunFig11b()
			return tb, err
		}},
		{"fig12a", "uplink SNR vs rate", func() (experiments.Table, error) {
			_, tb, err := experiments.RunFig12a(*seed)
			return tb, err
		}},
		{"fig12b", "uplink packet loss", func() (experiments.Table, error) {
			_, tb, err := experiments.RunFig12b(*seed, packets)
			return tb, err
		}},
		{"fig13a", "downlink beacon loss", func() (experiments.Table, error) {
			_, tb, err := experiments.RunFig13a(*seed, packets)
			return tb, err
		}},
		{"fig13b", "beacon sync offsets", func() (experiments.Table, error) {
			_, tb, err := experiments.RunFig13b(*seed)
			return tb, err
		}},
		{"fig14", "ping-pong latency", func() (experiments.Table, error) {
			_, tb, err := experiments.RunFig14(*seed)
			return tb, err
		}},
		{"fig15a", "convergence, fixed tags", func() (experiments.Table, error) {
			_, tb, err := experiments.RunFig15a(seeds)
			return tb, err
		}},
		{"fig15b", "convergence, fixed utilization", func() (experiments.Table, error) {
			_, tb, err := experiments.RunFig15b(seeds)
			return tb, err
		}},
		{"fig16", "long-running slot statistics", func() (experiments.Table, error) {
			_, tb, err := experiments.RunFig16(*seed, slots)
			return tb, err
		}},
		{"fig17", "strain case study", func() (experiments.Table, error) {
			_, tb, err := experiments.RunFig17()
			return tb, err
		}},
		{"fig19", "ALOHA baseline", func() (experiments.Table, error) {
			_, tb, err := experiments.RunFig19(*seed)
			return tb, err
		}},
		{"appendixc", "convergence proof verification", experiments.RunAppendixC},
		{"aloha-vs", "ALOHA vs distributed head-to-head", func() (experiments.Table, error) {
			return experiments.RunAlohaVsDistributed(*seed, slots)
		}},
		{"ablation-vanilla", "vanilla vs distributed under loss", func() (experiments.Table, error) {
			return experiments.RunAblationVanillaVsDistributed(*seed, slots, 0.001)
		}},
		{"ablation-timer", "beacon-loss timer", func() (experiments.Table, error) {
			return experiments.RunAblationBeaconLossTimer(*seed, slots, 0.005)
		}},
		{"ablation-empty", "EMPTY-flag gate", func() (experiments.Table, error) {
			return experiments.RunAblationEmptyGate(seeds / 2)
		}},
		{"ablation-future", "future-collision avoidance", func() (experiments.Table, error) {
			return experiments.RunAblationFutureCollision(seeds / 2)
		}},
		{"ablation-nack", "NACK threshold sweep", func() (experiments.Table, error) {
			return experiments.RunAblationNackThreshold(*seed, slots)
		}},
		{"ablation-interrupt", "interrupt-driven power", func() (experiments.Table, error) {
			return experiments.RunAblationInterruptDriven(), nil
		}},
		{"dl-scheme", "FSK-in-OOK-out vs plain OOK downlink", func() (experiments.Table, error) {
			_, tb, err := experiments.RunDLSchemeStudy(*seed, packets/2)
			return tb, err
		}},
		{"multi-reader", "spatial multiplexing extension", func() (experiments.Table, error) {
			return experiments.RunMultiReaderStudy(*seed, slots)
		}},
		{"ambient", "ambient harvesting extension", func() (experiments.Table, error) {
			return experiments.RunAmbientHarvestStudy()
		}},
		{"budget", "per-position energy budget", func() (experiments.Table, error) {
			return experiments.RunBudgetTable()
		}},
		{"crossval", "probabilistic vs waveform-DSP link models", func() (experiments.Table, error) {
			return experiments.RunModeCrossValidation(*seed, slots/10)
		}},
		{"fig15-net", "convergence cross-check on the event network", func() (experiments.Table, error) {
			return experiments.RunFig15Network(*seed, seeds/2)
		}},
	}

	if *list {
		for _, e := range exps {
			fmt.Printf("  %-20s %s\n", e.name, e.desc)
		}
		return 0
	}

	want := map[string]bool{}
	for _, a := range flag.Args() {
		want[strings.ToLower(a)] = true
	}
	if len(want) > 0 {
		known := map[string]bool{}
		for _, e := range exps {
			known[e.name] = true
		}
		var unknown []string
		for w := range want {
			if !known[w] {
				unknown = append(unknown, w)
			}
		}
		if len(unknown) > 0 {
			sort.Strings(unknown)
			fmt.Fprintf(os.Stderr, "unknown experiments: %s (use -list)\n", strings.Join(unknown, ", "))
			return 2
		}
	}

	failed := false
	for _, e := range exps {
		if len(want) > 0 && !want[e.name] {
			continue
		}
		tb, err := e.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
			failed = true
			continue
		}
		if *format == "csv" {
			fmt.Printf("# %s\n", tb.Title)
			if err := tb.WriteCSV(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
				failed = true
			}
			fmt.Println()
			continue
		}
		fmt.Println(tb.String())
	}
	if failed {
		return 1
	}
	return 0
}
