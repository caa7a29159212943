package mac

import (
	"slices"
	"sort"
	"testing"

	"repro/internal/obs"
)

func TestSlotSimConvergesPerfectLinks(t *testing.T) {
	for _, pt := range Table3Patterns() {
		s, err := NewSlotSim(SlotSimConfig{Pattern: pt, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		slots, ok := s.RunUntilConverged(100_000)
		if !ok {
			t.Errorf("%s never converged", pt.Name)
			continue
		}
		if slots < 32 {
			t.Errorf("%s converged in %d slots (< window)", pt.Name, slots)
		}
		// Once converged with perfect links, the settled schedule is
		// collision-free (Lemma 1): run on and demand zero further
		// collisions.
		before := s.TruthCollisions
		s.Run(500)
		if s.TruthCollisions != before {
			t.Errorf("%s: %d collisions after convergence", pt.Name, s.TruthCollisions-before)
		}
	}
}

func TestSlotSimAllSettledAfterConvergence(t *testing.T) {
	pt := Table3Patterns()[2] // c3
	s, err := NewSlotSim(SlotSimConfig{Pattern: pt, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.RunUntilConverged(100_000); !ok {
		t.Fatal("no convergence")
	}
	// Let the last ACKs land.
	s.Run(2 * s.reader.maxP)
	if !s.AllSettled() {
		t.Errorf("states after convergence: %v", s.TagStates())
	}
	// The settled assignments must be mutually conflict-free.
	if err := VerifySchedule(s.Assignments()); err != nil {
		t.Errorf("settled schedule collides: %v", err)
	}
}

// TestLemma1SettledImpliesCollisionFree is the DESIGN.md safety
// property: whenever all tags are in SETTLE (with synchronized
// counters, i.e. no beacon loss), no slot has two transmitters.
func TestLemma1SettledImpliesCollisionFree(t *testing.T) {
	for seed := uint64(0); seed < 30; seed++ {
		pt := Table3Patterns()[int(seed)%len(Table3Patterns())]
		s, err := NewSlotSim(SlotSimConfig{Pattern: pt, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 30_000; i++ {
			res := s.Step()
			if s.AllSettled() && len(res.Transmitters) > 1 {
				t.Fatalf("seed %d %s: collision in slot %d with all tags settled",
					seed, pt.Name, res.Slot)
			}
			if s.Convergence.Converged() && s.SlotsRun > s.Convergence.ConvergenceSlot()+500 {
				break
			}
		}
	}
}

func TestConvergenceGrowsWithUtilization(t *testing.T) {
	// Fig. 15(a): median first-convergence time rises steeply from c1
	// (U=0.38) to c5 (U=1.0).
	median := func(pt Pattern) int {
		var times []int
		for seed := uint64(0); seed < 15; seed++ {
			s, err := NewSlotSim(SlotSimConfig{Pattern: pt, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			slots, ok := s.RunUntilConverged(300_000)
			if !ok {
				t.Fatalf("%s seed %d: no convergence", pt.Name, seed)
			}
			times = append(times, slots)
		}
		sort.Ints(times)
		return times[len(times)/2]
	}
	pats := Table3Patterns()
	c1 := median(pats[0])
	c5 := median(pats[4])
	if c5 < 4*c1 {
		t.Errorf("c5 median (%d) should dwarf c1 median (%d)", c5, c1)
	}
	if c1 < 32 || c1 > 600 {
		t.Errorf("c1 median %d outside plausible band (paper: 139)", c1)
	}
	if c5 < 300 || c5 > 8000 {
		t.Errorf("c5 median %d outside plausible band (paper: 1712)", c5)
	}
}

func TestBeaconLossRecovery(t *testing.T) {
	// With 1% beacon loss the network keeps getting disrupted but must
	// keep re-settling: over a long run the collision ratio stays low
	// and the non-empty ratio near the bound (Fig. 16 behaviour).
	pt := Table3Patterns()[2] // c3, bound 0.84375
	loss := make([]float64, pt.NumTags())
	for i := range loss {
		loss[i] = 0.001
	}
	s, err := NewSlotSim(SlotSimConfig{
		Pattern:        pt,
		Seed:           11,
		BeaconLossProb: loss,
		CaptureProb:    0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(10_000)
	nonEmpty := s.Window.AverageNonEmptyRatio()
	collision := s.Window.AverageCollisionRatio()
	if nonEmpty < 0.70 || nonEmpty > 0.86 {
		t.Errorf("non-empty ratio %.3f, want near 0.812 (paper)", nonEmpty)
	}
	if collision > 0.12 {
		t.Errorf("collision ratio %.3f too high (paper: 0.056)", collision)
	}
}

func TestLateArrivalIntegratesWithoutDisruption(t *testing.T) {
	// Tags 1..11 converge first; tag 12 (period 16) joins at slot 3000.
	// The EMPTY gate should let it integrate while settled tags keep
	// their slots.
	pt := Table3Patterns()[1] // c2: 12 tags period 16, U = 0.75
	join := make([]int, 12)
	join[11] = 3000
	s, err := NewSlotSim(SlotSimConfig{Pattern: pt, Seed: 5, JoinSlot: join})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(3000)
	// The detector waits for the last tag to join, so the first 11
	// tags' convergence is read from their own states.
	if s.Convergence.Converged() {
		t.Fatal("converged before the last tag joined")
	}
	for i, st := range s.TagStates()[:11] {
		if st != Settle {
			t.Fatalf("tag %d did not settle before the join", i+1)
		}
	}
	// Record settled offsets of the early tags.
	pre := s.Assignments()[:11]
	if err := VerifySchedule(pre); err != nil {
		t.Fatalf("first 11 tags did not converge before the join: %v", err)
	}
	// Run long enough for tag 12 to integrate.
	collisionsBefore := s.TruthCollisions
	s.Run(4000)
	if !s.AllSettled() {
		t.Fatalf("late tag never settled; states %v", s.TagStates())
	}
	if !s.Convergence.Converged() {
		t.Error("never converged after the late join")
	}
	post := s.Assignments()
	for i := 0; i < 11; i++ {
		if post[i] != pre[i] {
			t.Errorf("settled tag %d moved from %+v to %+v during late join",
				i+1, pre[i], post[i])
		}
	}
	if err := VerifySchedule(post); err != nil {
		t.Errorf("final schedule collides: %v", err)
	}
	// The EMPTY gate means integration happens with almost no new
	// collisions.
	if d := s.TruthCollisions - collisionsBefore; d > 3 {
		t.Errorf("late join caused %d collisions", d)
	}
}

func TestFutureCollisionScenarioEndToEnd(t *testing.T) {
	// Sec. 5.6: A and B (period 4) early, C (period 2) late. C is
	// structurally blocked until the reader evicts one of A/B; then all
	// three settle.
	pt := Pattern{Name: "sec5.6", Periods: []Period{4, 4, 2}}
	join := []int{0, 0, 400}
	var settledAll bool
	for seed := uint64(0); seed < 10 && !settledAll; seed++ {
		s, err := NewSlotSim(SlotSimConfig{Pattern: pt, Seed: seed, JoinSlot: join})
		if err != nil {
			t.Fatal(err)
		}
		s.Run(6000)
		settledAll = s.AllSettled() && VerifySchedule(s.Assignments()) == nil
	}
	if !settledAll {
		t.Error("the Sec. 5.6 deadlock was never resolved in 10 seeds")
	}
}

// TestConvergenceWaitsForLastJoin staggers the joins every 5 slots (the
// last tag joins at slot 55): the detector's 32 clean slots must all
// come after the last join.
func TestConvergenceWaitsForLastJoin(t *testing.T) {
	for _, pt := range []Pattern{Table3Patterns()[0], Table3Patterns()[4]} { // c1, c5
		join := make([]int, pt.NumTags())
		for i := range join {
			join[i] = 5 * i
		}
		last := join[len(join)-1]
		for seed := uint64(1); seed <= 5; seed++ {
			s, err := NewSlotSim(SlotSimConfig{Pattern: pt, Seed: seed, JoinSlot: join})
			if err != nil {
				t.Fatal(err)
			}
			at, ok := s.RunUntilConverged(100_000)
			if !ok {
				t.Fatalf("%s seed %d: never converged", pt.Name, seed)
			}
			if at < last+32 {
				t.Errorf("%s seed %d: converged at slot %d, less than 32 slots after the last join at %d",
					pt.Name, seed, at, last)
			}
		}
	}
}

func TestSlotSimDeterministic(t *testing.T) {
	cfg := SlotSimConfig{Pattern: Table3Patterns()[3], Seed: 99,
		BeaconLossProb: []float64{0.01, 0.01, 0.01}}
	a, err := NewSlotSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSlotSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		ra, rb := a.Step(), b.Step()
		if len(ra.Transmitters) != len(rb.Transmitters) || ra.Feedback != rb.Feedback {
			t.Fatalf("same seed diverged at slot %d", i)
		}
	}
}

func TestSlotSimTagCounters(t *testing.T) {
	s, err := NewSlotSim(SlotSimConfig{Pattern: Pattern{Periods: []Period{2}}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(100)
	tx, acks, err := s.TagCounters(1)
	if err != nil {
		t.Fatal(err)
	}
	if tx < 40 || acks == 0 {
		t.Errorf("tx=%d acks=%d for a lone period-2 tag over 100 slots", tx, acks)
	}
	if _, _, err := s.TagCounters(2); err == nil {
		t.Error("out-of-range tid accepted")
	}
}

func TestSlotSimRejectsBadPattern(t *testing.T) {
	if _, err := NewSlotSim(SlotSimConfig{Pattern: Pattern{Periods: []Period{3}}}); err == nil {
		t.Error("invalid pattern accepted")
	}
}

func TestConvergenceDetector(t *testing.T) {
	d := NewConvergenceDetector()
	for i := 0; i < 31; i++ {
		if d.Observe(false) {
			t.Fatal("converged early")
		}
	}
	if !d.Observe(false) {
		t.Fatal("did not converge at 32 clean slots")
	}
	if !d.Converged() || d.ConvergenceSlot() != 32 {
		t.Errorf("slot = %d", d.ConvergenceSlot())
	}
	// A collision resets the run.
	d2 := NewConvergenceDetector()
	for i := 0; i < 31; i++ {
		d2.Observe(false)
	}
	d2.Observe(true)
	for i := 0; i < 31; i++ {
		if d2.Observe(false) {
			t.Fatal("converged before a fresh 32-run")
		}
	}
	if !d2.Observe(false) {
		t.Fatal("never converged after reset")
	}
	if d2.ConvergenceSlot() != 64 {
		t.Errorf("slot = %d, want 64", d2.ConvergenceSlot())
	}
}

func TestWindowStats(t *testing.T) {
	w := NewWindowStats()
	for i := 0; i < 16; i++ {
		w.Observe(true, false)
	}
	for i := 0; i < 16; i++ {
		w.Observe(false, false)
	}
	if r := w.NonEmptyRatio(); r != 0.5 {
		t.Errorf("windowed non-empty = %v", r)
	}
	w.Observe(true, true)
	if w.CollisionRatio() == 0 {
		t.Error("collision not reflected in window")
	}
	if w.Slots() != 33 {
		t.Errorf("slots = %d", w.Slots())
	}
	if w.AverageNonEmptyRatio() <= 0.5 || w.AverageNonEmptyRatio() >= 0.6 {
		t.Errorf("avg non-empty = %v", w.AverageNonEmptyRatio())
	}
	var empty WindowStats
	if empty.NonEmptyRatio() != 0 || empty.AverageCollisionRatio() != 0 {
		t.Error("empty stats should be zero")
	}
}

// TestMillionSlotSoak runs the protocol for a million slots (c3 with
// realistic impairments) and checks the long-run metrics stay at the
// Fig. 16 operating point throughout. Skipped under -short.
func TestMillionSlotSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	pt := Table3Patterns()[2]
	loss := make([]float64, pt.NumTags())
	ulf := make([]float64, pt.NumTags())
	for i := range loss {
		loss[i] = 0.001
		ulf[i] = 0.005
	}
	s, err := NewSlotSim(SlotSimConfig{
		Pattern:          pt,
		Seed:             777,
		BeaconLossProb:   loss,
		ULDecodeFailProb: ulf,
		CaptureProb:      0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	const total = 1_000_000
	for done := 0; done < total; done += 100_000 {
		s.Run(100_000)
		ne := s.Window.AverageNonEmptyRatio()
		cr := s.Window.AverageCollisionRatio()
		if ne < 0.74 || ne > 0.86 {
			t.Fatalf("at slot %d: non-empty drifted to %.3f", s.SlotsRun, ne)
		}
		if cr > 0.11 {
			t.Fatalf("at slot %d: collision ratio drifted to %.3f", s.SlotsRun, cr)
		}
	}
	// Tag counters stay self-consistent over the whole run.
	for tid := 1; tid <= pt.NumTags(); tid++ {
		tx, acks, err := s.TagCounters(tid)
		if err != nil {
			t.Fatal(err)
		}
		if acks > tx {
			t.Fatalf("tag %d: %d acks for %d transmissions", tid, acks, tx)
		}
		if tx == 0 {
			t.Fatalf("tag %d never transmitted in a million slots", tid)
		}
	}
}

// brownoutEvery browns out one tag (round robin) every n slots.
type brownoutEvery struct {
	n, tags int
	fs      SlotFaults
}

func (b *brownoutEvery) BeginSlot(slot int) *SlotFaults {
	b.fs = SlotFaults{}
	if slot%b.n == b.n-1 {
		b.fs.Brownout = make([]bool, b.tags)
		b.fs.Brownout[(slot/b.n)%b.tags] = true
	}
	return &b.fs
}

// TestOffsetsStayInRange checks the precondition of the mask forms of
// TransmitsAt and Conflicts: every offset a tag draws (at construction,
// on RESET, migration, beacon loss and rejoin) and every schedule the
// reader settles lies in [0, P).
func TestOffsetsStayInRange(t *testing.T) {
	for _, pt := range Table3Patterns() {
		join := make([]int, pt.NumTags())
		loss := make([]float64, pt.NumTags())
		for i := range join {
			join[i] = 50 * (i % 3) // late arrivals go through the EMPTY gate
			loss[i] = 0.02
		}
		s, err := NewSlotSim(SlotSimConfig{Pattern: pt, Seed: 3, JoinSlot: join, BeaconLossProb: loss,
			Faults: &brownoutEvery{n: 97, tags: pt.NumTags()}})
		if err != nil {
			t.Fatal(err)
		}
		for slot := 0; slot < 4000; slot++ {
			s.Step()
			for _, tg := range s.tags {
				if off := tg.proto.Offset(); off < 0 || off >= int(tg.proto.Period) {
					t.Fatalf("%s slot %d: tag %d offset %d outside [0, %d)", pt.Name, slot, tg.tid, off, tg.proto.Period)
				}
			}
			for tid, ok := range s.reader.settledOK {
				if a := s.reader.settled[tid]; ok && (a.Offset < 0 || a.Offset >= int(a.Period)) {
					t.Fatalf("%s slot %d: reader settled tid %d at %+v", pt.Name, slot, tid, a)
				}
			}
		}
	}
}

// TestMemorySinkKeepsSlotCloseTIDs: slot_close events borrow the
// simulator's scratch slices, which the next Step overwrites. What a
// MemorySink recorded must still read as the slot it came from, with
// an empty transmitter list kept empty and non-nil.
func TestMemorySinkKeepsSlotCloseTIDs(t *testing.T) {
	sink := obs.NewMemorySink()
	s, err := NewSlotSim(SlotSimConfig{Pattern: Table3Patterns()[2], Seed: 5, CaptureProb: 0.5, Trace: obs.New(sink)})
	if err != nil {
		t.Fatal(err)
	}
	var tids, decoded [][]int
	for i := 0; i < 2000; i++ {
		res := s.Step()
		tids = append(tids, slices.Clone(res.Transmitters))
		decoded = append(decoded, slices.Clone(res.Obs.Decoded))
	}
	closes := obs.OfKind(sink.Events(), obs.KindSlotClose)
	if len(closes) != len(tids) {
		t.Fatalf("%d slot_close events for %d slots", len(closes), len(tids))
	}
	for i, ev := range closes {
		if ev.TIDs == nil || !slices.Equal(ev.TIDs, tids[i]) {
			t.Fatalf("slot %d: recorded TIDs %v, transmitters were %v", i, ev.TIDs, tids[i])
		}
		if (ev.Decoded == nil) != (decoded[i] == nil) || !slices.Equal(ev.Decoded, decoded[i]) {
			t.Fatalf("slot %d: recorded Decoded %v, decoded were %v", i, ev.Decoded, decoded[i])
		}
	}
}
