package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/arachnet"
	"repro/internal/fleetd"
)

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
