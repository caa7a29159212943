package arachnet

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

// TestCreateTraceFileWritesAndCloses round-trips one event through a
// binary trace file and rejects an unknown format.
func TestCreateTraceFileWritesAndCloses(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.bin")
	sink, err := CreateTraceFile(path, TraceFormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	sink.Emit(TraceEvent{Kind: TraceTagSettle, Slot: 7, TID: 3})
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var ev TraceEvent
	if err := obs.NewEventReader(f).Read(&ev); err != nil {
		t.Fatal(err)
	}
	if ev.Kind != TraceTagSettle || ev.Slot != 7 || ev.TID != 3 {
		t.Errorf("read back %+v", ev)
	}

	if _, err := CreateTraceFile(filepath.Join(t.TempDir(), "x"), "xml"); err == nil {
		t.Error("unknown trace format accepted")
	}
}

// TestCreateTraceFileReportsWriteError requires a failed write (a full
// device) to surface from Close, so callers can exit non-zero instead
// of leaving a truncated trace behind.
func TestCreateTraceFileReportsWriteError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	for _, format := range []string{TraceFormatJSONL, TraceFormatBinary} {
		sink, err := CreateTraceFile("/dev/full", format)
		if err != nil {
			t.Fatal(err)
		}
		sink.Emit(TraceEvent{Kind: TraceTagSettle, Slot: 1, TID: 1})
		if err := sink.Close(); err == nil {
			t.Errorf("%s: Close on a full device returned nil", format)
		}
	}
}

// TestCreateTraceFileStderrNotClosed pins that "-" writes to stderr and
// that closing the sink leaves stderr open.
func TestCreateTraceFileStderrNotClosed(t *testing.T) {
	stderr, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer stderr.Close()
	saved := os.Stderr
	os.Stderr = stderr
	defer func() { os.Stderr = saved }()

	sink, err := CreateTraceFile("-", TraceFormatJSONL)
	if err != nil {
		t.Fatal(err)
	}
	sink.Emit(TraceEvent{Kind: TraceTagSettle, Slot: 2, TID: 5})
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := stderr.WriteString("still open\n"); err != nil {
		t.Fatalf("stderr closed by the trace sink: %v", err)
	}
	data, err := os.ReadFile(stderr.Name())
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	if len(lines) != 2 || !bytes.Contains(lines[0], []byte(`"tag_settle"`)) {
		t.Errorf("stderr got %q", data)
	}
}
