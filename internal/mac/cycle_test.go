package mac

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/obs"
)

// simState is a SlotSim with everything that is not simulation state
// cleared: the per-slot scratch, the saved cycle state, the skip
// counter, the every-slot switch and the observers. It syncs the tags first, so their lazy
// counters reflect every slot stepped. reflect.DeepEqual on two of
// them compares every tag (protocol fields, RNG state, counters), the
// reader tables, the sim RNG, the pending feedback, Window and
// Convergence.
func simState(s *SlotSim) SlotSim {
	s.syncTags()
	c := *s
	c.txScratch, c.tidScratch, c.decScratch = nil, nil, nil
	c.cyc, c.skipped, c.everySlot = slotState{}, 0, false
	c.cfg.Trace, c.cfg.Faults = nil, nil
	r := *s.reader
	r.exAs, r.exTIDs, r.vScratch, r.due = nil, nil, nil, nil
	r.Trace = nil
	c.reader = &r
	return c
}

// sameSim fails the test unless a and b hold the same simulation state,
// reported through the public views as well as field by field.
func sameSim(t *testing.T, what string, a, b *SlotSim) {
	t.Helper()
	if !reflect.DeepEqual(a.Assignments(), b.Assignments()) {
		t.Fatalf("%s: assignments %v, stepped %v", what, a.Assignments(), b.Assignments())
	}
	for tid := 1; tid <= len(a.tags); tid++ {
		atx, aack, _ := a.TagCounters(tid)
		btx, back, _ := b.TagCounters(tid)
		if atx != btx || aack != back {
			t.Fatalf("%s: tag %d counters (%d, %d), stepped (%d, %d)", what, tid, atx, aack, btx, back)
		}
	}
	if a.Window.NonEmptyRatio() != b.Window.NonEmptyRatio() || a.Window.CollisionRatio() != b.Window.CollisionRatio() {
		t.Fatalf("%s: window ratios (%v, %v), stepped (%v, %v)", what,
			a.Window.NonEmptyRatio(), a.Window.CollisionRatio(), b.Window.NonEmptyRatio(), b.Window.CollisionRatio())
	}
	if sa, sb := simState(a), simState(b); !reflect.DeepEqual(sa, sb) {
		t.Fatalf("%s: state differs from the stepped oracle at slot %d", what, a.SlotsRun)
	}
}

// runChunked drives s to horizon through Run in 512-slot calls, as the
// fleet does.
func runChunked(s *SlotSim, horizon int) {
	for s.SlotsRun < horizon {
		s.Run(min(512, horizon-s.SlotsRun))
	}
}

// stepTo drives s to horizon one Step at a time: the oracle.
func stepTo(s *SlotSim, horizon int) {
	for s.SlotsRun < horizon {
		s.Step()
	}
}

// oracleHorizons are checkpoints of one run, none a multiple of 32.
var oracleHorizons = []int{1_007, 3_001, 7_777, 10_013}

// checkAgainstSteps runs a chunked-Run simulator and a stepped one from
// the same config to every horizon and requires identical state at
// each; it returns the Run simulator.
func checkAgainstSteps(t *testing.T, what string, cfg, oracleCfg SlotSimConfig, horizons []int) *SlotSim {
	t.Helper()
	run, err := NewSlotSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	step, err := NewSlotSim(oracleCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range horizons {
		runChunked(run, h)
		stepTo(step, h)
		sameSim(t, fmt.Sprintf("%s @%d", what, h), run, step)
	}
	return run
}

// TestRunSkipMatchesSteps is the full-state oracle of the steady-state
// fast-forward: on every Table 3 pattern, seeds 1-40, Run in 512-slot
// chunks equals a Step loop in every field at horizons that are not
// multiples of the hyperperiod.
func TestRunSkipMatchesSteps(t *testing.T) {
	skipped := 0
	for _, pt := range Table3Patterns() {
		for seed := uint64(1); seed <= 40; seed++ {
			cfg := SlotSimConfig{Pattern: pt, Seed: seed}
			s := checkAgainstSteps(t, fmt.Sprintf("%s seed %d", pt.Name, seed), cfg, cfg, oracleHorizons)
			skipped += s.skipped
		}
	}
	if skipped == 0 {
		t.Fatal("no run skipped a cycle: the oracle compared nothing but stepping")
	}
}

// The oracle on configurations that must not skip (or, for a late
// join, not before the last tag joined): link loss, a fault source and
// a tracer rule the fast-forward out, and a join beyond the horizon
// keeps the state from ever repeating.
func TestRunSkipIneligibleConfigs(t *testing.T) {
	c3 := Table3Patterns()[2]
	late := make([]int, c3.NumTags())
	late[4] = 20_000 // joins after the last horizon
	for _, c := range []struct {
		name string
		cfg  func() SlotSimConfig
	}{
		{"beacon-loss",
			func() SlotSimConfig { return SlotSimConfig{Pattern: c3, Seed: 3, BeaconLossProb: []float64{0, 0.01}} }},
		{"ul-fail",
			func() SlotSimConfig { return SlotSimConfig{Pattern: c3, Seed: 3, ULDecodeFailProb: []float64{0.02}} }},
		{"join-beyond-horizon",
			func() SlotSimConfig { return SlotSimConfig{Pattern: c3, Seed: 3, JoinSlot: late} }},
		{"fault-source",
			func() SlotSimConfig {
				return SlotSimConfig{Pattern: c3, Seed: 3, Faults: &brownoutEvery{n: 4000, tags: c3.NumTags()}}
			}},
		{"tracer",
			func() SlotSimConfig {
				return SlotSimConfig{Pattern: c3, Seed: 3, Trace: obs.New(obs.NewMemorySink())}
			}},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := checkAgainstSteps(t, c.name, c.cfg(), c.cfg(), oracleHorizons)
			if s.skipped != 0 {
				t.Fatalf("skipped %d slots", s.skipped)
			}
		})
	}
}

// A tag joining mid-run: no cycle may be skipped while a tag has yet
// to join, and the run must match the oracle (and skip) afterwards.
func TestRunSkipWaitsForLateJoin(t *testing.T) {
	c3 := Table3Patterns()[2]
	join := make([]int, c3.NumTags())
	join[7] = 6_000
	cfg := SlotSimConfig{Pattern: c3, Seed: 5, JoinSlot: join}
	run, err := NewSlotSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	step, err := NewSlotSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []int{3_001, 6_001, 8_003, 10_013} {
		runChunked(run, h)
		stepTo(step, h)
		sameSim(t, fmt.Sprintf("join at 6000 @%d", h), run, step)
		if h < join[7] && run.skipped != 0 {
			t.Fatalf("skipped %d slots before the last tag joined", run.skipped)
		}
	}
	if run.skipped == 0 {
		t.Fatal("never skipped after the late tag joined")
	}
}

// The window's length against the hyperperiod's: with the paper's
// 32-slot ring and H = 16 (c8), the ring can still hold slots from
// before the cycle when the cycle is first proven, and carrying it over
// a skip would report stale window ratios. On seeds 75 and 231 it does,
// so carries must check that the ring is 16-periodic. (With H = 32 the
// ring lands where it was; TestRunSkipMatchesSteps covers that.)
func TestRunSkipWindowLengths(t *testing.T) {
	c8 := Table3Patterns()[7]
	for _, seed := range []uint64{75, 231} {
		cfg := SlotSimConfig{Pattern: c8, Seed: seed}
		if s := checkAgainstSteps(t, fmt.Sprintf("c8 seed %d", seed), cfg, cfg, oracleHorizons); s.skipped == 0 {
			t.Fatalf("c8 seed %d: no cycle skipped", seed)
		}
	}
}

// TestRunSkipEngages pins what the fast-forward saves: clean
// 10,000-slot runs step on average at most 2,000 slots per pattern
// over seeds 1-20.
func TestRunSkipEngages(t *testing.T) {
	const horizon, seeds = 10_000, 20
	for _, pt := range Table3Patterns() {
		stepped := 0
		for seed := uint64(1); seed <= seeds; seed++ {
			s, err := NewSlotSim(SlotSimConfig{Pattern: pt, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			runChunked(s, horizon)
			stepped += s.SlotsRun - s.skipped
		}
		if mean := stepped / seeds; mean > 2_000 {
			t.Errorf("%s: %d slots stepped per 10,000-slot run, want <= 2,000", pt.Name, mean)
		} else {
			t.Logf("%s: %d slots stepped per 10,000-slot run", pt.Name, mean)
		}
	}
}

// A proof must not outlive a change of observers or a reset: after
// either, Run re-proves the cycle from the live state.
func TestRunSkipResetAndObservers(t *testing.T) {
	cfg := SlotSimConfig{Pattern: Table3Patterns()[0], Seed: 9}
	s, err := NewSlotSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runChunked(s, 5_000)
	s.AttachObservers(nil, &brownoutEvery{n: 100, tags: cfg.Pattern.NumTags()})
	s.Run(1_000)
	s.AttachObservers(nil, nil)
	o, err := NewSlotSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stepTo(o, 5_000)
	o.AttachObservers(nil, &brownoutEvery{n: 100, tags: cfg.Pattern.NumTags()})
	stepTo(o, 6_000)
	o.AttachObservers(nil, nil)
	runChunked(s, 10_013)
	stepTo(o, 10_013)
	sameSim(t, "after faults detached", s, o)

	s.Reset(11)
	o.Reset(11)
	runChunked(s, 7_777)
	stepTo(o, 7_777)
	sameSim(t, "after reset", s, o)
}

// TestTagTransmitMaskMatchesModulo checks OnBeacon's mask transmit test
// against the modulo rule it replaces, for every period 2^0..2^10,
// every offset in [0, P) and every counter in [0, 64P).
func TestTagTransmitMaskMatchesModulo(t *testing.T) {
	for k := 0; k <= 10; k++ {
		p := 1 << k
		for off := 0; off < p; off++ {
			// A settled tag that is ACKed whenever it transmits never
			// draws or changes offset, so only the counter moves.
			tag := &TagProtocol{Period: Period(p), NackThreshold: DefaultNackThreshold, state: Settle, offset: off, counter: -1}
			for c := 0; c < 64*p; c++ {
				if got, want := tag.OnBeacon(Feedback{ACK: true}), c%p == off; got != want {
					t.Fatalf("P=%d offset %d counter %d: transmit %v, modulo rule %v", p, off, c, got, want)
				}
			}
		}
	}
}
