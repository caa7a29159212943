// Command arachnet-experiments regenerates every table and figure of
// the paper's evaluation. By default it runs the full set; pass
// experiment names to run a subset:
//
//	arachnet-experiments                        # everything
//	arachnet-experiments fig15a fig16           # just those
//	arachnet-experiments -list                  # show available names
//	arachnet-experiments -seed 7 -quick table2  # smaller, faster variants
//
// The names, their order and their sample sizes come from
// experiments.Catalog.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/arachnet"
	"repro/experiments"
	"repro/internal/prof"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, writes the report to
// stdout and diagnostics to stderr, and returns the exit code (1 when
// an experiment or the trace fails, 2 on bad usage).
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("arachnet-experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", 1, "random seed for all experiments")
	quick := fs.Bool("quick", false, "smaller sample counts (faster, noisier)")
	list := fs.Bool("list", false, "list experiment names and exit")
	format := fs.String("format", "table", "output format: table or csv")
	workers := fs.Int("workers", 0, "Monte Carlo trial fan-out (0 = GOMAXPROCS; results are identical for any width)")
	tracePath := fs.String("trace", "", `write every trial's job_start/job_finish events to this file ("-" = stderr)`)
	traceFormat := fs.String("trace-format", "jsonl", "trace encoding: jsonl or binary")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file at exit")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if *format != "table" && *format != "csv" {
		fmt.Fprintf(stderr, "unknown -format %q (table or csv)\n", *format)
		return 2
	}

	size := experiments.DefaultSize
	if *quick {
		size = experiments.QuickSize
	}
	exps := experiments.Catalog(*seed, size)

	if *list {
		for _, e := range exps {
			fmt.Fprintf(stdout, "  %-20s %s\n", e.Name, e.Desc)
		}
		return 0
	}

	want := map[string]bool{}
	for _, a := range fs.Args() {
		want[strings.ToLower(a)] = true
	}
	if len(want) > 0 {
		known := map[string]bool{}
		for _, e := range exps {
			known[e.Name] = true
		}
		var unknown []string
		for w := range want {
			if !known[w] {
				unknown = append(unknown, w)
			}
		}
		if len(unknown) > 0 {
			sort.Strings(unknown)
			fmt.Fprintf(stderr, "unknown experiments: %s (use -list)\n", strings.Join(unknown, ", "))
			return 2
		}
	}

	experiments.SetWorkers(*workers)
	if *tracePath != "" {
		sink, err := arachnet.CreateTraceFile(*tracePath, *traceFormat)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		experiments.SetTrace(arachnet.NewTracer(sink))
		// A truncated trace fails the run (exit 1).
		defer func() {
			experiments.SetTrace(nil)
			if err := sink.Close(); err != nil {
				fmt.Fprintln(stderr, "trace:", err)
				code = 1
			}
		}()
	}
	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(stderr, err)
		}
	}()

	failed := false
	for _, e := range exps {
		if len(want) > 0 && !want[e.Name] {
			continue
		}
		tb, err := e.Run()
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", e.Name, err)
			failed = true
			continue
		}
		var werr error
		if *format == "csv" {
			fmt.Fprintf(stdout, "# %s\n", tb.Title)
			werr = tb.WriteCSV(stdout)
			fmt.Fprintln(stdout)
		} else {
			_, werr = fmt.Fprintln(stdout, tb.String())
		}
		if werr != nil {
			fmt.Fprintf(stderr, "%s: %v\n", e.Name, werr)
			failed = true
		}
	}
	if failed {
		return 1
	}
	return 0
}
