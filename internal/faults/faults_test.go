package faults

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/mac"
	"repro/internal/obs"
)

func moderatePlan() Plan {
	return Plan{
		Name:      "moderate",
		Fades:     &FadeSpec{Burst: Burst{EnterProb: 0.005, MeanSlots: 10}, DepthDB: 6},
		Feedback:  &FeedbackSpec{LossProb: 0.003, CorruptProb: 0.001},
		Brownouts: &BrownoutSpec{Prob: 0.0005, OffSlots: 10},
		ReaderOutages: &OutageSpec{
			Burst: Burst{EnterProb: 0.0003, MeanSlots: 5},
		},
		ClockJitter: &JitterSpec{SlipProb: 0.002},
	}
}

func TestPlanValidate(t *testing.T) {
	if err := moderatePlan().Validate(); err != nil {
		t.Fatalf("moderate plan invalid: %v", err)
	}
	if err := (Plan{}).Validate(); err != nil {
		t.Fatalf("empty plan invalid: %v", err)
	}
	if !(Plan{}).Empty() {
		t.Error("zero plan not Empty")
	}
	if moderatePlan().Empty() {
		t.Error("moderate plan reported Empty")
	}
	bad := []Plan{
		{Fades: &FadeSpec{Burst: Burst{EnterProb: 1.5, MeanSlots: 5}}},
		{Fades: &FadeSpec{Burst: Burst{EnterProb: 0.1, MeanSlots: 0.5}}},
		{Fades: &FadeSpec{Burst: Burst{EnterProb: 0.1, MeanSlots: 5}, DepthDB: -3}},
		{Feedback: &FeedbackSpec{LossProb: -0.1}},
		{Feedback: &FeedbackSpec{CorruptProb: 2}},
		{Brownouts: &BrownoutSpec{Prob: 0.1, OffSlots: 0}},
		{ReaderOutages: &OutageSpec{Burst: Burst{EnterProb: -1}}},
		{ClockJitter: &JitterSpec{SlipProb: 1.1}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad plan %d validated", i)
		}
	}
}

func TestPlanJSONRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "plan.json")
	want := moderatePlan()
	want.ReaderOutages.ResetOnRestart = true
	want.Fades.Tags = []int{2, 5}
	data, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadPlanFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	if _, err := UnmarshalPlan([]byte(`{"feedback":{"loss_prob":3}}`)); err == nil {
		t.Error("invalid plan unmarshalled without error")
	}
	if _, err := UnmarshalPlan([]byte(`{`)); err == nil {
		t.Error("malformed JSON unmarshalled without error")
	}
}

func TestRandomPlanValid(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		p := RandomPlan(seed)
		if err := p.Validate(); err != nil {
			t.Fatalf("RandomPlan(%d) invalid: %v", seed, err)
		}
		if p.Empty() {
			t.Fatalf("RandomPlan(%d) empty", seed)
		}
	}
	a, b := RandomPlan(7), RandomPlan(7)
	if !reflect.DeepEqual(a, b) {
		t.Error("RandomPlan not deterministic")
	}
}

func TestUlFailDerivedFromDepth(t *testing.T) {
	f := FadeSpec{DepthDB: 6}
	p := f.ulFail()
	if p < 0.6 || p > 0.7 {
		t.Errorf("derived ulFail(6 dB) = %v, want ~0.63", p)
	}
	f.ULFailProb = 0.25
	if f.ulFail() != 0.25 {
		t.Errorf("explicit ULFailProb not honored")
	}
}

// runChaos executes a slot-level run under the plan and returns the
// event stream and final simulator.
func runChaos(t *testing.T, plan Plan, seed uint64, slots int) ([]obs.Event, *mac.SlotSim, *Injector) {
	t.Helper()
	// c7: mixed periods, 10 tags, utilization 0.75. Saturated workloads
	// (c5, U = 1.0) are excluded on purpose: there a rejoiner can need a
	// full Sec. 5.6 eviction cascade to reopen a residue class, so no
	// small resettle bound holds under continued fault pressure.
	pt := mac.Table3Patterns()[6]
	sink := obs.NewMemorySink()
	tr := obs.New(sink)
	tr.Mute(obs.KindSlotOpen, obs.KindSlotClose)
	inj, err := NewInjector(plan, seed, pt.NumTags(), tr)
	if err != nil {
		t.Fatal(err)
	}
	s, err := mac.NewSlotSim(mac.SlotSimConfig{Pattern: pt, Seed: seed, Trace: tr, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(slots)
	return sink.Events(), s, inj
}

func TestInjectorDeterminism(t *testing.T) {
	plan := moderatePlan()
	ev1, s1, inj1 := runChaos(t, plan, 42, 20000)
	ev2, s2, inj2 := runChaos(t, plan, 42, 20000)
	if !reflect.DeepEqual(ev1, ev2) {
		t.Fatalf("event streams diverged: %d vs %d events", len(ev1), len(ev2))
	}
	if !reflect.DeepEqual(inj1.Injected(), inj2.Injected()) {
		t.Fatalf("fault census diverged:\n %v\n %v", inj1.Injected(), inj2.Injected())
	}
	if s1.SlotsRun != s2.SlotsRun || s1.TruthNonEmpty != s2.TruthNonEmpty ||
		s1.TruthCollisions != s2.TruthCollisions {
		t.Fatal("simulator counters diverged")
	}
	if inj1.InjectedTotal() == 0 {
		t.Fatal("moderate plan injected nothing in 20k slots")
	}
	// A different seed must give a different fault sequence.
	ev3, _, _ := runChaos(t, plan, 43, 20000)
	if reflect.DeepEqual(ev1, ev3) {
		t.Fatal("different seeds produced identical event streams")
	}
}

func TestInjectorBeginSlotOrderPanics(t *testing.T) {
	inj, err := NewInjector(moderatePlan(), 1, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	inj.BeginSlot(0)
	defer func() {
		if recover() == nil {
			t.Error("out-of-order BeginSlot did not panic")
		}
	}()
	inj.BeginSlot(5)
}

func TestChaosInvariants(t *testing.T) {
	// The acceptance bar: the protocol invariants hold under at least
	// three distinct randomized fault plans (run this under -race).
	for _, seed := range []uint64{1, 2, 3, 4} {
		seed := seed
		t.Run(RandomPlan(seed).Name, func(t *testing.T) {
			plan := RandomPlan(seed)
			events, _, inj := runChaos(t, plan, seed, 30000)
			if inj.InjectedTotal() == 0 {
				t.Fatal("random plan injected nothing")
			}
			if err := CheckInvariants(events, InvariantConfig{}); err != nil {
				t.Fatalf("invariants: %v\ncensus: %s", err, inj.CensusString())
			}
			rep := Analyze(events)
			if rep.DuplicateSlotViolations != 0 {
				t.Errorf("duplicate-slot violations: %d", rep.DuplicateSlotViolations)
			}
			if rep.Settles == 0 {
				t.Error("no settles under chaos — network never formed")
			}
			if rep.Brownouts > 0 && rep.Rejoins == 0 {
				t.Error("brownouts injected but no rejoins observed")
			}
			t.Logf("%s", rep.String())
		})
	}
}

func TestRecoveryReportSynthetic(t *testing.T) {
	// A hand-built trace: tag 1 settles, browns out at slot 100 (fault),
	// rejoins at 110, re-settles at 126 (4 periods of 4); tag 2 settles
	// conflicting with tag 1's schedule (violation).
	events := []obs.Event{
		{Kind: obs.KindTagSettle, Slot: 10, TID: 1, Period: 4, Offset: 2},
		{Kind: obs.KindFaultInject, Slot: 100, TID: 1, Detail: "brownout", Value: 10},
		{Kind: obs.KindTagUnsettle, Slot: 104, TID: 1, Detail: "missed"},
		{Kind: obs.KindTagRejoin, Slot: 110, TID: 1, Period: 4},
		{Kind: obs.KindTagSettle, Slot: 126, TID: 1, Period: 4, Offset: 2},
		{Kind: obs.KindTagSettle, Slot: 130, TID: 2, Period: 8, Offset: 6},
	}
	rep := Analyze(events)
	if rep.Brownouts != 1 || rep.Rejoins != 1 {
		t.Fatalf("brownouts=%d rejoins=%d", rep.Brownouts, rep.Rejoins)
	}
	if len(rep.Resettles) != 1 || rep.Resettles[0].ResettleSlot != 126 {
		t.Fatalf("resettles = %+v", rep.Resettles)
	}
	if rep.Resettles[0].Periods != 4 {
		t.Errorf("resettle periods = %v, want 4", rep.Resettles[0].Periods)
	}
	// 6 mod 4 == 2: tag 2's schedule collides with tag 1's.
	if rep.DuplicateSlotViolations != 1 {
		t.Errorf("duplicate violations = %d, want 1", rep.DuplicateSlotViolations)
	}
	if rep.ReconvergeSlots != 30 { // last change 130, last fault 100
		t.Errorf("reconverge = %d, want 30", rep.ReconvergeSlots)
	}
	if err := CheckInvariants(events, InvariantConfig{}); err == nil {
		t.Error("conflicting settle passed CheckInvariants")
	}
	// Unrecovered arc: brownout + rejoin, trace ends before settle.
	open := []obs.Event{
		{Kind: obs.KindFaultInject, Slot: 5, TID: 3, Detail: "brownout", Value: 2},
		{Kind: obs.KindTagRejoin, Slot: 8, TID: 3, Period: 8},
	}
	rep = Analyze(open)
	if rep.Unrecovered != 1 {
		t.Errorf("unrecovered = %d, want 1", rep.Unrecovered)
	}
	if err := CheckInvariants(open, InvariantConfig{}); err != nil {
		t.Errorf("open window at horizon flagged: %v", err)
	}
}

func TestInvariantBounds(t *testing.T) {
	// Eviction with no unsettle past the bound must trip.
	events := []obs.Event{
		{Kind: obs.KindTagEvict, Slot: 10, TID: 1},
		{Kind: obs.KindSlotClose, Slot: 10 + 16*32 + 1},
	}
	if err := CheckInvariants(events, InvariantConfig{}); err == nil {
		t.Error("unterminated eviction passed")
	}
	// Same trace with the unsettle in time passes.
	ok := []obs.Event{
		{Kind: obs.KindTagEvict, Slot: 10, TID: 1},
		{Kind: obs.KindTagUnsettle, Slot: 50, TID: 1, Detail: "evicted"},
		{Kind: obs.KindSlotClose, Slot: 10 + 16*32 + 1},
	}
	if err := CheckInvariants(ok, InvariantConfig{}); err != nil {
		t.Errorf("terminated eviction flagged: %v", err)
	}
	// Rejoin with no settle past ResettleBoundPeriods*period trips.
	late := []obs.Event{
		{Kind: obs.KindTagRejoin, Slot: 0, TID: 2, Period: 4},
		{Kind: obs.KindSlotClose, Slot: 4*64 + 16*32 + 1},
	}
	if err := CheckInvariants(late, InvariantConfig{}); err == nil {
		t.Error("unrecovered rejoin past bound passed")
	}
}

func TestFadeDepthHook(t *testing.T) {
	plan := Plan{Fades: &FadeSpec{Burst: Burst{EnterProb: 1, MeanSlots: 1e9}, DepthDB: 7}}
	inj, err := NewInjector(plan, 9, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := inj.FadeDepthDB(1); d != 0 {
		t.Errorf("fade depth before first slot = %v", d)
	}
	inj.BeginSlot(0)
	for tid := 1; tid <= 3; tid++ {
		if d := inj.FadeDepthDB(tid); d != 7 {
			t.Errorf("tid %d fade depth = %v, want 7", tid, d)
		}
	}
	if d := inj.FadeDepthDB(99); d != 0 {
		t.Errorf("out-of-range tid depth = %v", d)
	}
}

// TestInjectorScratchClearedEachSlot: BeginSlot hands out the same
// buffers every slot, so each flag it returns must come from one of
// this slot's own fault events, never from an earlier slot.
func TestInjectorScratchClearedEachSlot(t *testing.T) {
	plan := Plan{
		Feedback:    &FeedbackSpec{LossProb: 0.2, CorruptProb: 0.2},
		Brownouts:   &BrownoutSpec{Prob: 0.1, OffSlots: 3},
		ClockJitter: &JitterSpec{SlipProb: 0.1},
	}
	sink := obs.NewMemorySink()
	inj, err := NewInjector(plan, 1, 6, obs.New(sink))
	if err != nil {
		t.Fatal(err)
	}
	count := func(flags []bool) int {
		n := 0
		for _, f := range flags {
			if f {
				n++
			}
		}
		return n
	}
	for slot := 0; slot < 500; slot++ {
		fs := inj.BeginSlot(slot)
		events := map[string]int{}
		for _, ev := range sink.Drain() {
			events[ev.Detail]++
		}
		got := map[string]int{
			"beacon_loss": count(fs.BeaconLoss),
			"ack_corrupt": count(fs.CorruptACK),
			"brownout":    count(fs.Brownout),
			"jitter_slip": count(fs.SlipSlot),
		}
		for detail, n := range got {
			if n != events[detail] {
				t.Fatalf("slot %d: %d %s flags, %d %s events", slot, n, detail, events[detail], detail)
			}
		}
	}
}
