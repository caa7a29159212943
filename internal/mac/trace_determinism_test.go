package mac

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/obs"
)

// unsettleStorm drives a reader protocol through a scenario where four
// tags share the same (period, offset) schedule (future-collision veto
// disabled, as in the ablation) and then all cross the NACK threshold
// in the same slot, so trackExpected emits four tag_unsettle events
// from one invocation. Before the settled-set snapshot fix their order
// — and therefore the JSONL trace fingerprint — depended on map
// iteration order.
func unsettleStorm(t *testing.T) ([]obs.Event, []byte) {
	t.Helper()
	sink := obs.NewMemorySink()
	var jsonl bytes.Buffer
	r, err := NewReaderProtocol(map[int]Period{1: 4, 2: 4, 3: 4, 4: 4})
	if err != nil {
		t.Fatal(err)
	}
	r.DisableFutureVeto = true
	js := obs.NewStreamSink(&jsonl, obs.JSONL)
	r.Trace = obs.New(sink, js)

	// Settle phase: one solo decode per tag on the shared residue
	// class. A high threshold keeps the earlier settlers from being
	// dropped while the later ones join.
	r.NackThreshold = 100
	for slot := 0; slot <= 12; slot++ {
		var o Observation
		switch slot {
		case 0:
			o.Decoded = []int{1}
		case 4:
			o.Decoded = []int{2}
		case 8:
			o.Decoded = []int{3}
		case 12:
			o.Decoded = []int{4}
		}
		if _, err := r.EndSlot(o); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.SettledCount(); got != 4 {
		t.Fatalf("settle phase: %d settled, want 4", got)
	}

	// Miss phase: zero the accumulated misses so all four tags cross
	// the real threshold together, three missed expected slots later.
	for tid := range r.misses {
		r.misses[tid] = 0
	}
	r.NackThreshold = DefaultNackThreshold
	for slot := 13; slot <= 24; slot++ {
		if _, err := r.EndSlot(Observation{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.SettledCount(); got != 0 {
		t.Fatalf("miss phase: %d still settled, want 0", got)
	}
	if err := js.Close(); err != nil {
		t.Fatal(err)
	}
	return sink.Events(), jsonl.Bytes()
}

// TestUnsettleTraceDeterministic pins the trace across two runs: the
// event streams (and their JSONL serializations, the fingerprint input
// of the fault-recovery suite) must be byte-identical, and the
// simultaneous unsettles must come out in ascending tid order.
func TestUnsettleTraceDeterministic(t *testing.T) {
	ev1, fp1 := unsettleStorm(t)
	ev2, fp2 := unsettleStorm(t)

	if !bytes.Equal(fp1, fp2) {
		t.Fatalf("JSONL trace fingerprints differ across identical runs:\n run1:\n%s\n run2:\n%s", fp1, fp2)
	}
	if len(ev1) != len(ev2) {
		t.Fatalf("event counts differ: %d vs %d", len(ev1), len(ev2))
	}
	for i := range ev1 {
		if fmt.Sprintf("%+v", ev1[i]) != fmt.Sprintf("%+v", ev2[i]) {
			t.Fatalf("event %d differs: %+v vs %+v", i, ev1[i], ev2[i])
		}
	}

	var unsettled []int
	for _, ev := range ev1 {
		if ev.Kind == obs.KindTagUnsettle {
			if ev.Slot != 24 {
				t.Errorf("unsettle for tid %d at slot %d, want 24", ev.TID, ev.Slot)
			}
			unsettled = append(unsettled, ev.TID)
		}
	}
	if len(unsettled) != 4 {
		t.Fatalf("got %d unsettle events, want 4 (one per tag): %v", len(unsettled), unsettled)
	}
	for i, tid := range unsettled {
		if tid != i+1 {
			t.Fatalf("unsettle order %v, want ascending tids [1 2 3 4]", unsettled)
		}
	}
}
