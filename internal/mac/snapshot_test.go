package mac

import (
	"sync"
	"testing"
)

func snapshotTestConfig() SlotSimConfig {
	return SlotSimConfig{
		Pattern:          Table3Patterns()[2], // c3
		BeaconLossProb:   []float64{0.01, 0.01, 0.02, 0.01, 0.03},
		ULDecodeFailProb: []float64{0.02, 0.01},
		CaptureProb:      0.1,
		JoinSlot:         []int{0, 0, 5, 9, 0},
	}
}

// stepTrace runs n slots and folds every observable slot outcome into a
// comparable trace.
func stepTrace(t *testing.T, s *SlotSim, n int) []SlotResult {
	t.Helper()
	out := make([]SlotResult, 0, n)
	for i := 0; i < n; i++ {
		res := s.Step()
		// The result aliases simulator scratch: deep-copy for retention.
		cp := res
		cp.Transmitters = append([]int(nil), res.Transmitters...)
		cp.Obs.Decoded = append([]int(nil), res.Obs.Decoded...)
		out = append(out, cp)
	}
	return out
}

func sameTrace(a, b []SlotResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Slot != y.Slot || x.Feedback != y.Feedback || x.Obs.Collision != y.Obs.Collision {
			return false
		}
		if len(x.Transmitters) != len(y.Transmitters) || len(x.Obs.Decoded) != len(y.Obs.Decoded) {
			return false
		}
		for j := range x.Transmitters {
			if x.Transmitters[j] != y.Transmitters[j] {
				return false
			}
		}
		for j := range x.Obs.Decoded {
			if x.Obs.Decoded[j] != y.Obs.Decoded[j] {
				return false
			}
		}
	}
	return true
}

// A pooled clone reset to a seed must replay the exact slot-by-slot
// trace of a freshly constructed simulator with that seed — the whole
// snapshot/clone seam rests on this. The ablation configs check that
// Reset writes each protocol knob into a clone that a dirty trial ran
// on, not only the defaults.
func TestSnapshotCloneBitIdentical(t *testing.T) {
	withLinks := snapshotTestConfig()
	plain := SlotSimConfig{Pattern: withLinks.Pattern}
	nack := withLinks
	nack.NackThreshold = 5
	noGate := plain
	noGate.DisableEmptyGate = true
	noGate.JoinSlot = []int{0, 0, 40, 90, 0, 130}
	noVeto := withLinks
	noVeto.DisableFutureVeto = true
	joins := plain
	joins.JoinSlot = []int{3, 0, 60, 0, 200, 0, 17}
	for _, tc := range []struct {
		name string
		cfg  SlotSimConfig
	}{
		{"links", withLinks},
		{"nack-threshold", nack},
		{"no-empty-gate", noGate},
		{"no-future-veto", noVeto},
		{"join-slots", joins},
	} {
		t.Run(tc.name, func(t *testing.T) { checkCloneBitIdentical(t, tc.cfg) })
	}
}

func checkCloneBitIdentical(t *testing.T, cfg SlotSimConfig) {
	sn, err := NewSlotSimSnapshot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{1, 7, 42, 0xFEEDFACE} {
		// Dirty the pooled clone with a different trial first.
		dirty := sn.Acquire(seed^0xABCD, nil, nil)
		dirty.Run(257)
		sn.Release(dirty)

		clone := sn.Acquire(seed, nil, nil)
		checkConfigApplied(t, clone, cfg)
		fcfg := cfg
		fcfg.Seed = seed
		fresh, err := NewSlotSim(fcfg)
		if err != nil {
			t.Fatal(err)
		}
		got := stepTrace(t, clone, 600)
		want := stepTrace(t, fresh, 600)
		if !sameTrace(got, want) {
			t.Fatalf("seed %d: pooled clone trace diverges from fresh build", seed)
		}
		if clone.TruthNonEmpty != fresh.TruthNonEmpty ||
			clone.TruthCollisions != fresh.TruthCollisions ||
			clone.Reader().SettledCount() != fresh.Reader().SettledCount() ||
			clone.Window.AverageNonEmptyRatio() != fresh.Window.AverageNonEmptyRatio() ||
			clone.Window.AverageCollisionRatio() != fresh.Window.AverageCollisionRatio() ||
			clone.Convergence.ConvergenceSlot() != fresh.Convergence.ConvergenceSlot() {
			t.Fatalf("seed %d: aggregate state diverges between clone and fresh build", seed)
		}
		for tid := 1; tid <= cfg.Pattern.NumTags(); tid++ {
			ctx, cack, _ := clone.TagCounters(tid)
			ftx, fack, _ := fresh.TagCounters(tid)
			if ctx != ftx || cack != fack {
				t.Fatalf("seed %d tid %d: counters (%d,%d) != (%d,%d)", seed, tid, ctx, cack, ftx, fack)
			}
		}
		sn.Release(clone)
	}
}

// checkConfigApplied fails unless a freshly acquired clone carries
// cfg's protocol knobs on every tag and on the reader.
func checkConfigApplied(t *testing.T, s *SlotSim, cfg SlotSimConfig) {
	t.Helper()
	wantN := DefaultNackThreshold
	if cfg.NackThreshold > 0 {
		wantN = cfg.NackThreshold
	}
	if r := s.Reader(); r.NackThreshold != wantN || r.DisableFutureVeto != cfg.DisableFutureVeto {
		t.Fatalf("reader N=%d veto-off=%v, want N=%d veto-off=%v",
			r.NackThreshold, r.DisableFutureVeto, wantN, cfg.DisableFutureVeto)
	}
	for i, tg := range s.tags {
		if tg.proto.NackThreshold != wantN || tg.proto.DisableEmptyGate != cfg.DisableEmptyGate ||
			tg.joinSlot != cfg.joinSlot(i) || tg.lastTxSlot != -1 {
			t.Fatalf("tag %d: N=%d gate-off=%v join=%d lastTx=%d, want N=%d gate-off=%v join=%d lastTx=-1",
				tg.tid, tg.proto.NackThreshold, tg.proto.DisableEmptyGate, tg.joinSlot, tg.lastTxSlot,
				wantN, cfg.DisableEmptyGate, cfg.joinSlot(i))
		}
	}
}

// The steady-state trial loop — acquire, run, release — must not
// allocate once the pool is warm. This is the ISSUE 7 alloc gate for
// the mac layer.
func TestSlotSimPooledTrialAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; alloc counts are meaningless")
	}
	sn, err := NewSlotSimSnapshot(snapshotTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Warm the pool.
	s := sn.Acquire(1, nil, nil)
	s.Run(64)
	sn.Release(s)

	seed := uint64(2)
	n := testing.AllocsPerRun(50, func() {
		s := sn.Acquire(seed, nil, nil)
		s.Run(64)
		sn.Release(s)
		seed++
	})
	if n != 0 {
		t.Fatalf("pooled trial allocates %v per run, want 0", n)
	}
}

// Concurrent acquire/release across goroutines: exercised under -race
// by make check; traces must still be bit-identical per seed.
func TestSnapshotClonePoolConcurrent(t *testing.T) {
	sn, err := NewSlotSimSnapshot(snapshotTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewSlotSim(SlotSimConfig{Pattern: sn.Config().Pattern,
		BeaconLossProb: sn.Config().BeaconLossProb, ULDecodeFailProb: sn.Config().ULDecodeFailProb,
		CaptureProb: sn.Config().CaptureProb, JoinSlot: sn.Config().JoinSlot, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	ref.Run(400)
	wantNE, wantCol := ref.TruthNonEmpty, ref.TruthCollisions

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for trial := 0; trial < 8; trial++ {
				s := sn.Acquire(99, nil, nil)
				s.Run(400)
				if s.TruthNonEmpty != wantNE || s.TruthCollisions != wantCol {
					errs <- "clone diverged from reference under concurrency"
				}
				sn.Release(s)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
