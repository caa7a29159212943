package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"

	"repro/arachnet"
	"repro/internal/fleetd"
)

// TestMain runs the command itself when the test binary is re-executed
// with ARACHNET_TRACE_MAIN set, so a test can drive it as a process.
func TestMain(m *testing.M) {
	if os.Getenv("ARACHNET_TRACE_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestFaultsRecoveryReport pins the -faults recovery report on stderr,
// byte for byte, for a plan that exercises every fault process. The
// expected text is what the command printed when it buffered the
// events and analyzed them at exit; folding them as they arrive must
// not change a byte.
func TestFaultsRecoveryReport(t *testing.T) {
	plan := filepath.Join(t.TempDir(), "plan.json")
	if err := os.WriteFile(plan, []byte(`{
  "name": "trace-recovery",
  "fades": {"enter_prob": 0.002, "mean_slots": 20, "depth_db": 9},
  "feedback": {"loss_prob": 0.002, "corrupt_prob": 0.001},
  "brownouts": {"prob": 0.0005, "off_slots": 10},
  "reader_outages": {"enter_prob": 0.0005, "mean_slots": 30, "reset_on_restart": true},
  "clock_jitter": {"slip_prob": 0.001}
}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-pattern", "c5", "-seed", "9", "-slots", "4000", "-faults", plan)
	cmd.Env = append(os.Environ(), "ARACHNET_TRACE_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%v; stderr:\n%s", err, stderr.String())
	}
	const want = `recovery: slots=3998 settled=9 churn=431 reconverge=17 slots after last fault
  ledger: settles=242 unsettles=176 evictions=24 duplicate_slot_violations=0
  power:  brownouts=26 rejoins=25 resettled=24 unrecovered=1 max_resettle=61.8 periods
  faults: fault_clear:fade_end=82 fault_clear:outage_end=2 fault_inject:ack_corrupt=50 fault_inject:beacon_loss=81 fault_inject:brownout=26 fault_inject:fade_start=82 fault_inject:jitter_slip=46 fault_inject:outage_start=2 fault_inject:reader_reset=2
`
	if got := stderr.String(); got != want {
		t.Errorf("recovery report:\n%s\nwant:\n%s", got, want)
	}
}

// TestMetricsCensus pins the -metrics event census on stderr: one
// "events_<kind>" counter per emitted kind, sorted, in the %-32s %d
// layout, then a blank line.
func TestMetricsCensus(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-pattern", "c3", "-slots", "300", "-metrics")
	cmd.Env = append(os.Environ(), "ARACHNET_TRACE_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%v; stderr:\n%s", err, stderr.String())
	}
	want := fmt.Sprintf("%-32s %d\n%-32s %d\n%-32s %d\n\n",
		"events_slot_close", 300, "events_slot_open", 300, "events_tag_settle", 12)
	if got := stderr.String(); got != want {
		t.Errorf("metrics census:\n%q\nwant:\n%q", got, want)
	}
}

// TestConvertDumpsCheckpoint: -convert on a fleetd checkpoint writes
// one JSON line that decodes to exactly the record UnmarshalCheckpoint
// reads from the same file.
func TestConvertDumpsCheckpoint(t *testing.T) {
	in := filepath.Join("..", "..", "internal", "fleetd", "testdata", "checkpoint_v1.bin")
	data, err := os.ReadFile(in)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fleetd.UnmarshalCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "ckpt.json")
	if err := convertTrace(in, out); err != nil {
		t.Fatal(err)
	}
	dump, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Count(dump, []byte("\n")) != 1 || !bytes.HasSuffix(dump, []byte("\n")) {
		t.Fatalf("dump is not one JSON line: %q", dump)
	}
	var got fleetd.Record
	if err := json.Unmarshal(dump, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("dumped record differs:\n got %+v\nwant %+v", got, want)
	}
}

// TestConvertTraceRoundTrip: the trace path is untouched by the
// checkpoint dump — binary → JSONL → binary reproduces the bytes.
func TestConvertTraceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	var bin bytes.Buffer
	sink, err := arachnet.NewTraceFileSink(&bin, arachnet.TraceFormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	pattern := arachnet.Table3Patterns()[2]
	s, err := arachnet.NewSlotSim(arachnet.SlotSimConfig{
		Pattern:     pattern,
		Seed:        3,
		CaptureProb: 0.5,
		Trace:       arachnet.NewTracer(sink),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		s.Step()
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	binPath := filepath.Join(dir, "events.bin")
	if err := os.WriteFile(binPath, bin.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	jsonlPath := filepath.Join(dir, "events.jsonl")
	if err := convertTrace(binPath, jsonlPath); err != nil {
		t.Fatal(err)
	}
	backPath := filepath.Join(dir, "back.bin")
	if err := convertTrace(jsonlPath, backPath); err != nil {
		t.Fatal(err)
	}
	back, err := os.ReadFile(backPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) == 0 || !bytes.Equal(back, bin.Bytes()) {
		t.Fatalf("trace round trip changed the bytes (%d -> %d)", bin.Len(), len(back))
	}
}
