// Command arachnet-trace runs the slot-level protocol simulator and
// emits one CSV row per slot: who transmitted, what the reader
// observed, and what the beacon fed back. Useful for plotting the
// convergence dynamics of Fig. 15/16 or debugging protocol changes.
//
// The CSV is a view over the structured observability stream: every
// row is rendered from the slot-close event the simulator emits. The
// full stream — including the reader's settle/unsettle/evict decisions
// that the CSV cannot show — can be captured as JSONL with -trace.
//
//	arachnet-trace -pattern c3 -slots 500 > trace.csv
//	arachnet-trace -pattern c5 -seed 9 -loss 0.001 -trace events.jsonl
//	arachnet-trace -pattern c5 -trace events.bin -trace-format binary
//	arachnet-trace -pattern c3 -metrics
//	arachnet-trace -pattern c7 -slots 20000 -faults plan.json
//	arachnet-trace -convert events.bin -o events.jsonl
//	arachnet-trace -convert /var/lib/fleetd/job-000003.ckpt.bin
//
// -faults injects a deterministic fault plan (see internal/faults);
// the recovery analysis folds the fault-relevant events as they are
// emitted, and its report is printed to stderr after the CSV completes.
//
// -convert bridges the two trace encodings without running anything:
// the input's format is detected from its bytes (binary streams open
// with the wire magic) and the file is rewritten in the other format.
// A binary trace converts to exactly the JSONL a JSONL sink would
// have written for the same run, and vice versa. A fleetd checkpoint
// (<id>.ckpt.bin, whose first frame is CKP1) is dumped one way, as
// one line of JSON holding the decoded record.
package main

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/arachnet"
	"repro/internal/fleetd"
	"repro/internal/wire"
)

func main() {
	patternName := flag.String("pattern", "c3", "Table 3 workload (c1..c9)")
	seed := flag.Uint64("seed", 1, "random seed")
	slots := flag.Int("slots", 500, "slots to trace")
	loss := flag.Float64("loss", 0, "per-tag beacon loss probability")
	capture := flag.Float64("capture", 0.5, "capture-effect decode probability")
	tracePath := flag.String("trace", "", `write the event stream to this file ("-" = stderr)`)
	traceFormat := flag.String("trace-format", "jsonl", "trace encoding: jsonl or binary")
	metrics := flag.Bool("metrics", false, "print aggregated event metrics to stderr at exit")
	faultsPath := flag.String("faults", "", "JSON fault plan to inject; prints the recovery report to stderr at exit")
	convertPath := flag.String("convert", "", `convert this trace file between JSONL and binary, or dump a fleetd checkpoint as JSON (format auto-detected; "-" = stdin) and exit`)
	outPath := flag.String("o", "", `with -convert: output file (default stdout)`)
	flag.Parse()

	if *convertPath != "" {
		if err := convertTrace(*convertPath, *outPath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	pattern, ok := arachnet.Table3Pattern(*patternName)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown pattern %q (c1..c9)\n", *patternName)
		os.Exit(2)
	}

	// The memory sink feeds the CSV; the optional stream sink and the
	// recovery folder share the same tracer so every view sees the
	// identical event sequence.
	mem := arachnet.NewMemorySink()
	sinks := []arachnet.TraceSink{mem}
	var plan arachnet.FaultPlan
	var rec *arachnet.Recovery
	if *faultsPath != "" {
		var err error
		if plan, err = arachnet.LoadFaultPlanFile(*faultsPath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		var recTrace *arachnet.Tracer
		rec, recTrace = arachnet.NewChaosTracer()
		sinks = append(sinks, recTrace)
	}
	var trace *arachnet.StreamSink
	if *tracePath != "" {
		var err error
		trace, err = arachnet.CreateTraceFile(*tracePath, *traceFormat)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		sinks = append(sinks, trace)
	}
	var census *arachnet.TraceMetrics
	if *metrics {
		census = arachnet.NewTraceMetrics()
		sinks = append(sinks, census)
	}
	tr := arachnet.NewTracer(sinks...)

	lossVec := make([]float64, pattern.NumTags())
	for i := range lossVec {
		lossVec[i] = *loss
	}
	cfg := arachnet.SlotSimConfig{
		Pattern:        pattern,
		Seed:           *seed,
		BeaconLossProb: lossVec,
		CaptureProb:    *capture,
		Trace:          tr,
	}
	if rec != nil {
		inj, err := arachnet.NewFaultInjector(plan, *seed, pattern.NumTags(), tr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		cfg.Faults = inj
	}
	s, err := arachnet.NewSlotSim(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	w := csv.NewWriter(os.Stdout)
	header := []string{"slot", "transmitters", "decoded", "collision", "ack", "empty", "converged", "window_nonempty", "window_collision"}
	if err := w.Write(header); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for i := 0; i < *slots; i++ {
		s.Step()
		// Render the row from the slot-close event; draining per step
		// keeps memory bounded on long runs.
		var row []string
		for _, ev := range mem.Drain() {
			if ev.Kind != arachnet.TraceSlotClose {
				continue
			}
			row = []string{
				strconv.Itoa(ev.Slot),
				joinInts(ev.TIDs),
				joinInts(ev.Decoded),
				strconv.FormatBool(ev.Collision),
				strconv.FormatBool(ev.ACK),
				strconv.FormatBool(ev.Empty),
				strconv.FormatBool(s.Convergence.Converged()),
				fmt.Sprintf("%.3f", s.Window.NonEmptyRatio()),
				fmt.Sprintf("%.3f", s.Window.CollisionRatio()),
			}
		}
		if row == nil {
			fmt.Fprintf(os.Stderr, "no slot-close event for slot %d\n", i)
			os.Exit(1)
		}
		if err := w.Write(row); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	// A silently truncated trace is worse than a loud failure: surface
	// CSV buffer flush errors and JSONL write errors, and exit non-zero.
	w.Flush()
	if err := w.Error(); err != nil {
		fmt.Fprintln(os.Stderr, "csv:", err)
		os.Exit(1)
	}
	if trace != nil {
		if err := trace.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "trace:", err)
			os.Exit(1)
		}
	}
	if census != nil {
		fmt.Fprintln(os.Stderr, census.Snapshot())
	}
	if rec != nil {
		fmt.Fprintln(os.Stderr, rec.Report().String())
	}
}

// convertTrace rewrites one trace file in the other encoding. The
// input format is sniffed from the first bytes — binary streams open
// with the wire magic — so the flag needs no format argument, and a
// round trip (binary → JSONL → binary) reproduces the original bytes.
// A binary stream whose first frame is a checkpoint is dumped as JSON.
func convertTrace(inPath, outPath string) error {
	in := io.Reader(os.Stdin)
	if inPath != "-" {
		f, err := os.Open(inPath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	br := bufio.NewReaderSize(in, 64<<10)
	head, _ := br.Peek(wire.HeaderSize + len(wire.TagCheckpoint))
	binary := bytes.HasPrefix(head, []byte("ARWB"))
	checkpoint := binary && len(head) > wire.HeaderSize && bytes.Equal(head[wire.HeaderSize:], wire.TagCheckpoint[:])

	out := io.Writer(os.Stdout)
	var outFile *os.File
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		outFile = f
		out = f
	}
	bw := bufio.NewWriterSize(out, 64<<10)
	var err error
	switch {
	case checkpoint:
		err = dumpCheckpoint(br, bw)
	case binary:
		err = arachnet.ConvertTraceBinaryToJSONL(br, bw)
	default:
		err = arachnet.ConvertTraceJSONLToBinary(br, bw)
	}
	if err == nil {
		err = bw.Flush()
	}
	if outFile != nil {
		if cerr := outFile.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("convert %s: %w", inPath, err)
	}
	return nil
}

// dumpCheckpoint decodes one fleetd checkpoint file (CRC verified) and
// writes its record as a single JSON line.
func dumpCheckpoint(r io.Reader, w io.Writer) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	rec, err := fleetd.UnmarshalCheckpoint(data)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	_, err = w.Write(append(line, '\n'))
	return err
}

func joinInts(xs []int) string {
	if len(xs) == 0 {
		return ""
	}
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.Itoa(x)
	}
	return strings.Join(parts, "|")
}
