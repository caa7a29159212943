package fleet

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/wire"
)

var updateGolden = flag.Bool("update", false, "rewrite golden wire-format fixtures")

func outcomeFixtures() []JobOutcome {
	return []JobOutcome{
		{
			JobInfo: JobInfo{Index: 0, Name: "veh-0", Seed: 0x9e3779b97f4a7c15},
			Status:  StatusOK,
			Result: Result{
				Metrics:  map[string]float64{"convergence_s": 12.5, "collision_ratio": 0.0625, "abs": -3},
				Counters: map[string]uint64{"decoded": 4096, "beacons": 3000},
			},
			Elapsed: 1500 * time.Millisecond,
		},
		{
			JobInfo: JobInfo{Index: 63, Name: "veh-63", Seed: 1},
			Status:  StatusFailed,
			Err:     "simulate: supercap under-volt",
			Elapsed: -1, // hostile clock skew must still round-trip
		},
		{
			JobInfo: JobInfo{Index: -2, Name: ""},
			Status:  StatusCancelled,
		},
	}
}

func TestJobOutcomeRoundTrip(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "outcomes_v1.bin"))
	if err != nil {
		t.Fatal(err)
	}
	off := 0
	for _, want := range outcomeFixtures() {
		want := want
		frame := AppendJobOutcome(nil, &want)
		_, _, goldenLen, err := wire.ConsumeFrame(golden[off:])
		if err != nil {
			t.Fatalf("job %d: golden frame: %v", want.Index, err)
		}
		if len(frame) != goldenLen {
			t.Fatalf("job %d: frame is %d bytes, golden fixture's is %d", want.Index, len(frame), goldenLen)
		}
		off += goldenLen
		var got JobOutcome
		n, err := UnmarshalJobOutcome(frame, &got)
		if err != nil || n != len(frame) {
			t.Fatalf("job %d: UnmarshalJobOutcome: %d, %v", want.Index, n, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("job %d round trip mangled outcome:\n got %+v\nwant %+v", want.Index, got, want)
		}
		for cut := 0; cut < len(frame); cut++ {
			if _, err := UnmarshalJobOutcome(frame[:cut], &got); err == nil {
				t.Fatalf("job %d cut at %d decoded successfully", want.Index, cut)
			}
		}
	}
}

func TestJobOutcomeEncodingDeterministic(t *testing.T) {
	// Map iteration order must never leak into the encoding: the wire
	// order is sorted keys, so repeated encodes are byte-identical (the
	// checkpoint CRC depends on this).
	o := outcomeFixtures()[0]
	first := AppendJobOutcome(nil, &o)
	for i := 0; i < 20; i++ {
		if again := AppendJobOutcome(nil, &o); !bytes.Equal(again, first) {
			t.Fatalf("encode %d differs from first encode", i)
		}
	}
}

func TestJobOutcomeHostileInput(t *testing.T) {
	var got JobOutcome

	// An out-of-range status is refused.
	o := JobOutcome{JobInfo: JobInfo{Index: 1, Name: "x"}, Status: StatusOK}
	frame := AppendJobOutcome(nil, &o)
	// The status byte sits right after index varint (1 byte), name
	// (1+1 bytes) and seed (8 bytes) in the payload.
	statusAt := wire.FrameHeaderSize + 1 + 2 + 8
	bad := append([]byte(nil), frame...)
	bad[statusAt] = 99
	if _, err := UnmarshalJobOutcome(bad, &got); !errors.Is(err, wire.ErrMalformed) {
		t.Fatalf("bogus status: %v, want ErrMalformed", err)
	}

	// Unsorted (or duplicate) result keys are refused, keeping the
	// encoding canonical.
	shuffled := outcomeFixtures()[0]
	frame = AppendJobOutcome(nil, &shuffled)
	// Swap the first two metric key initials to break the ordering.
	i := bytes.Index(frame, []byte("abs"))
	j := bytes.Index(frame, []byte("collision_ratio"))
	if i < 0 || j < 0 {
		t.Fatal("fixture keys not found in encoding")
	}
	frame[i], frame[j] = frame[j], frame[i]
	if _, err := UnmarshalJobOutcome(frame, &got); !errors.Is(err, wire.ErrMalformed) {
		t.Fatalf("shuffled keys: %v, want ErrMalformed", err)
	}

	// A hostile element count is refused before allocation.
	hostile := wire.AppendVarint(nil, 0)
	hostile = wire.AppendString(hostile, "n")
	hostile = wire.AppendU64(hostile, 0)
	hostile = wire.AppendUvarint(hostile, 0)     // status
	hostile = wire.AppendUvarint(hostile, 1<<40) // metric count
	f := wire.AppendFrame(nil, wire.TagJobOutcome, hostile)
	if _, err := UnmarshalJobOutcome(f, &got); !errors.Is(err, wire.ErrTruncated) {
		t.Fatalf("hostile metric count: %v, want ErrTruncated", err)
	}

	// A metric count equal to the padding bytes behind it: each entry
	// needs at least 9 bytes, so the count is refused before the
	// decoder allocates anything near the frame's size.
	padded := paddedOutcome(4 << 20)
	var err error
	alloc := allocated(func() { _, err = UnmarshalJobOutcome(padded, &got) })
	if alloc >= uint64(len(padded)) {
		t.Fatalf("padded metric count allocated %d bytes decoding a %d-byte frame", alloc, len(padded))
	}
	if !errors.Is(err, wire.ErrTruncated) {
		t.Fatalf("padded metric count: %v, want ErrTruncated", err)
	}
}

// paddedOutcome is a JOC1 frame whose metric count equals the pad zero
// bytes that follow it.
func paddedOutcome(pad int) []byte {
	payload := wire.AppendVarint(nil, 0)
	payload = wire.AppendString(payload, "n")
	payload = wire.AppendU64(payload, 0)
	payload = wire.AppendUvarint(payload, 0)           // status
	payload = wire.AppendUvarint(payload, uint64(pad)) // metric count
	payload = append(payload, make([]byte, pad)...)
	return wire.AppendFrame(nil, wire.TagJobOutcome, payload)
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

// TestGoldenJobOutcomeV1 freezes the version-1 JOC1 encoding: the
// committed fixture must decode forever. Regenerate with -update only
// alongside a tag version bump.
func TestGoldenJobOutcomeV1(t *testing.T) {
	path := filepath.Join("testdata", "outcomes_v1.bin")
	var stream []byte
	for _, o := range outcomeFixtures() {
		o := o
		stream = AppendJobOutcome(stream, &o)
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, stream, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with go test ./internal/fleet -run TestGoldenJobOutcomeV1 -update)", err)
	}
	if !bytes.Equal(stream, golden) {
		t.Fatal("current encoder no longer reproduces the golden v1 outcomes")
	}
	off := 0
	for i := range outcomeFixtures() {
		var got JobOutcome
		n, err := UnmarshalJobOutcome(golden[off:], &got)
		if err != nil {
			t.Fatalf("outcome %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, outcomeFixtures()[i]) {
			t.Fatalf("outcome %d decodes differently from the fixture: %+v", i, got)
		}
		off += n
	}
	if off != len(golden) {
		t.Fatalf("golden stream has %d trailing bytes", len(golden)-off)
	}
}

func FuzzUnmarshalJobOutcome(f *testing.F) {
	for _, o := range outcomeFixtures() {
		o := o
		f.Add(AppendJobOutcome(nil, &o))
	}
	f.Add([]byte("JOC1\x00\x00\x00\x00"))
	f.Add(paddedOutcome(4 << 10))
	f.Fuzz(func(t *testing.T, data []byte) {
		var o JobOutcome
		n, err := UnmarshalJobOutcome(data, &o)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d", n, len(data))
		}
		// Decode-encode must be a byte-level fixed point (sorted-key
		// canonical form is enforced on decode; floats travel as bits).
		canon := AppendJobOutcome(nil, &o)
		var o2 JobOutcome
		m, err := UnmarshalJobOutcome(canon, &o2)
		if err != nil || m != len(canon) {
			t.Fatalf("re-decode of re-encoded outcome failed: %d, %v", m, err)
		}
		if again := AppendJobOutcome(nil, &o2); !bytes.Equal(again, canon) {
			t.Fatal("decode/encode not a fixed point")
		}
	})
}
