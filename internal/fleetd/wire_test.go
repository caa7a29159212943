package fleetd

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/wire"
)

var updateGolden = flag.Bool("update", false, "rewrite golden wire fixtures")

// checkpointFixture is a mid-run record with every field populated:
// two deterministic shard outcomes, a verbatim spec, and the
// finished-job fields so the done-state shape is covered too.
func checkpointFixture() Record {
	return Record{
		ID:    "job-000042",
		State: StateRunningCkpt,
		Spec:  []byte(`{"seed":42,"vehicles":[{"name":"sweep","slots":2000}]}`),
		Outcomes: []fleet.JobOutcome{
			{
				JobInfo: fleet.JobInfo{Index: 0, Name: "sweep[0]", Seed: 42},
				Status:  fleet.StatusOK,
				Result: fleet.Result{
					Metrics:  map[string]float64{"collision_ratio": 0.125, "settle_slots": 1834},
					Counters: map[string]uint64{"decoded": 1997, "collisions": 3},
				},
				Elapsed: 1234567 * time.Nanosecond,
			},
			{
				JobInfo: fleet.JobInfo{Index: 1, Name: "sweep[1]", Seed: 43},
				Status:  fleet.StatusFailed,
				Err:     "phy: carrier lost",
				Elapsed: -1,
			},
		},
		Fingerprint: "sha256:deadbeef",
		Report:      []byte(`{"ok":true}`),
		Error:       "",
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	rec := checkpointFixture()
	data := AppendCheckpoint(nil, &rec)
	golden, err := os.ReadFile(filepath.Join("testdata", "checkpoint_v1.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != len(golden) {
		t.Fatalf("AppendCheckpoint wrote %d bytes, golden fixture is %d", len(data), len(golden))
	}

	got, err := UnmarshalCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rec) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, rec)
	}

	// Re-encoding the decoded record must be byte-identical — the
	// canonical-map ordering in the outcome codec makes the encoding a
	// pure function of the record.
	if again := AppendCheckpoint(nil, &got); !bytes.Equal(again, data) {
		t.Fatal("re-encoding a decoded checkpoint changed the bytes")
	}
}

// TestCheckpointEmptyRecord covers the queued-state shape: no
// outcomes, no report, empty strings everywhere but the ID.
func TestCheckpointEmptyRecord(t *testing.T) {
	rec := Record{ID: "job-1", State: StateQueuedCkpt, Spec: []byte(`{}`)}
	data := AppendCheckpoint(nil, &rec)
	got, err := UnmarshalCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != rec.ID || got.State != rec.State || len(got.Outcomes) != 0 {
		t.Fatalf("empty-record round trip mismatch: %+v", got)
	}
}

func TestCheckpointHostileInput(t *testing.T) {
	rec := checkpointFixture()
	data := AppendCheckpoint(nil, &rec)

	// Every truncation point must error (ErrTruncated, ErrBadHeader
	// for a cut header, or ErrMalformed once the CRC no longer covers
	// the remaining payload) and never panic.
	for cut := 0; cut < len(data); cut++ {
		if _, err := UnmarshalCheckpoint(data[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d decoded successfully", cut, len(data))
		}
	}

	// Trailing bytes after the frame.
	if _, err := UnmarshalCheckpoint(append(append([]byte(nil), data...), 0xFF)); !errors.Is(err, wire.ErrMalformed) {
		t.Fatalf("trailing byte: got %v, want ErrMalformed", err)
	}

	// A flipped payload byte must trip the CRC.
	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)-1] ^= 0x01
	if _, err := UnmarshalCheckpoint(corrupt); !errors.Is(err, wire.ErrMalformed) {
		t.Fatalf("bit flip: got %v, want ErrMalformed (crc)", err)
	}

	// Wrong frame tag (valid header, wrong record kind).
	wrongTag := fleet.AppendJobOutcome(wire.AppendHeader(nil), &rec.Outcomes[0])
	if _, err := UnmarshalCheckpoint(wrongTag); !errors.Is(err, wire.ErrUnknownTag) {
		t.Fatalf("wrong tag: got %v, want ErrUnknownTag", err)
	}

	// A future schema version must refuse even with a valid CRC. The
	// version is the single uvarint byte right after the 4-byte CRC at
	// the front of the payload (offset header + frame header + 4).
	future := append([]byte(nil), data...)
	verAt := wire.HeaderSize + wire.FrameHeaderSize + 4
	if future[verAt] != checkpointVersion {
		t.Fatalf("fixture layout changed: byte at %d is %d, want version %d", verAt, future[verAt], checkpointVersion)
	}
	future[verAt] = checkpointVersion + 1
	crc := wire.Checksum(future[verAt:])
	future[verAt-4] = byte(crc)
	future[verAt-3] = byte(crc >> 8)
	future[verAt-2] = byte(crc >> 16)
	future[verAt-1] = byte(crc >> 24)
	if _, err := UnmarshalCheckpoint(future); !errors.Is(err, wire.ErrMalformed) || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future version: got %v, want ErrMalformed mentioning version", err)
	}

	// Garbage that merely wears the magic must fail cleanly too.
	if _, err := UnmarshalCheckpoint([]byte("ARWB garbage that is not a checkpoint")); err == nil {
		t.Fatal("magic-prefixed garbage decoded successfully")
	}

	// An outcome count backed only by padding (one outcome per 8
	// bytes, a frame header each) fails at the first padded outcome
	// without allocating anything near the file's size.
	padded := paddedCheckpoint(4 << 20)
	var err error
	alloc := allocated(func() { _, err = UnmarshalCheckpoint(padded) })
	if !errors.Is(err, wire.ErrUnknownTag) {
		t.Fatalf("padded outcome count: %v, want ErrUnknownTag", err)
	}
	if alloc >= uint64(len(padded)) {
		t.Fatalf("padded outcome count allocated %d bytes decoding a %d-byte file", alloc, len(padded))
	}
}

// paddedCheckpoint is a checkpoint file with a valid CRC whose outcome
// count is pad/8 and whose outcomes are pad zero bytes.
func paddedCheckpoint(pad int) []byte {
	body := wire.AppendUvarint(nil, checkpointVersion)
	body = wire.AppendString(body, "job-1")
	body = wire.AppendString(body, StateRunningCkpt)
	body = wire.AppendBytes(body, []byte(`{}`))
	body = wire.AppendUvarint(body, uint64(pad/8))
	body = append(body, make([]byte, pad)...)
	payload := append(wire.AppendU32(nil, wire.Checksum(body)), body...)
	return wire.AppendFrame(wire.AppendHeader(nil), wire.TagCheckpoint, payload)
}

// allocated returns the bytes the heap allocated while f ran.
func allocated(f func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// TestGoldenCheckpointV1 pins the version-1 binary checkpoint layout:
// the committed fixture must decode (and re-encode bit-identically)
// forever. Regenerate deliberately with -update after a versioned
// format change.
func TestGoldenCheckpointV1(t *testing.T) {
	golden := filepath.Join("testdata", "checkpoint_v1.bin")
	rec := checkpointFixture()
	data := AppendCheckpoint(nil, &rec)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if !bytes.Equal(data, want) {
		t.Fatal("checkpoint encoding drifted from the committed v1 golden file")
	}
	got, err := UnmarshalCheckpoint(want)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rec) {
		t.Fatalf("golden fixture decoded to %+v, want %+v", got, rec)
	}
}

// FuzzUnmarshalCheckpoint drives hostile bytes through the decoder.
// Anything that decodes must reach a byte fixed point: re-encoding the
// decoded record and decoding again yields identical bytes.
func FuzzUnmarshalCheckpoint(f *testing.F) {
	rec := checkpointFixture()
	f.Add(AppendCheckpoint(nil, &rec))
	empty := Record{ID: "x"}
	f.Add(AppendCheckpoint(nil, &empty))
	f.Add([]byte("ARWB"))
	f.Add([]byte{})
	f.Add(paddedCheckpoint(4 << 10))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := UnmarshalCheckpoint(data)
		if err != nil {
			return
		}
		canon := AppendCheckpoint(nil, &rec)
		rec2, err := UnmarshalCheckpoint(canon)
		if err != nil {
			t.Fatalf("re-decoding canonical bytes failed: %v", err)
		}
		if again := AppendCheckpoint(nil, &rec2); !bytes.Equal(again, canon) {
			t.Fatal("checkpoint encoding is not a fixed point")
		}
	})
}

// TestCheckpointStoreBinaryFormat exercises the store on a real
// directory: writes land as .ckpt.bin CKP1 files and load back
// exactly, corruption is quarantined, and Remove clears the file.
func TestCheckpointStoreBinaryFormat(t *testing.T) {
	dir := t.TempDir()
	s, err := NewCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}

	rec := checkpointFixture()
	if err := s.Write(rec); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, rec.ID+ckptSuffix)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("checkpoint not written: %v", err)
	}
	if !bytes.Equal(raw, AppendCheckpoint(nil, &rec)) {
		t.Fatal("store wrote a different image than AppendCheckpoint")
	}

	recs, report := s.Load()
	if !report.Clean() || len(recs) != 1 {
		t.Fatalf("load: %d records, report %s", len(recs), report)
	}
	if !reflect.DeepEqual(recs[0], rec) {
		t.Fatalf("store round trip mismatch:\n got %+v\nwant %+v", recs[0], rec)
	}

	// A corrupt file is quarantined, not fatal.
	bad := append([]byte(nil), raw...)
	bad[len(bad)-1] ^= 0x01
	if err := os.WriteFile(filepath.Join(dir, "job-bad"+ckptSuffix), bad, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, report = s.Load()
	if len(recs) != 1 || len(report.Quarantined) != 1 {
		t.Fatalf("corrupt file not quarantined: %d records, report %s", len(recs), report)
	}
	if q := report.Quarantined[0]; q.MovedTo != "job-bad"+corruptSuffix || !strings.Contains(q.Reason, "undecodable") {
		t.Fatalf("unexpected quarantine: %+v", q)
	}

	if err := s.Remove(rec.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("Remove left the checkpoint behind: %v", err)
	}
	if err := s.Remove(rec.ID); err != nil {
		t.Fatalf("Remove of a missing checkpoint: %v", err)
	}
}

// TestCheckpointStoreOversizeQuarantined: a file larger than any valid
// checkpoint is quarantined from its directory entry, without being
// read.
func TestCheckpointStoreOversizeQuarantined(t *testing.T) {
	dir := t.TempDir()
	s, err := NewCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "job-huge"+ckptSuffix)
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, maxCheckpointFile+1); err != nil { // sparse
		t.Fatal(err)
	}
	var recs []Record
	var report RecoveryReport
	alloc := allocated(func() { recs, report = s.Load() })
	if len(recs) != 0 || len(report.Quarantined) != 1 {
		t.Fatalf("oversize file: %d records, report %s", len(recs), report)
	}
	q := report.Quarantined[0]
	if q.MovedTo != "job-huge"+corruptSuffix || !strings.Contains(q.Reason, fmt.Sprintf("limit %d", maxCheckpointFile)) {
		t.Fatalf("unexpected quarantine: %+v", q)
	}
	if alloc >= 1<<20 {
		t.Fatalf("Load allocated %d bytes for an oversize file, want < 1 MiB", alloc)
	}
}
