package faults

import (
	"fmt"
	"math"
	"math/big"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/mac"
	"repro/internal/obs"
	"repro/internal/sim"
)

// oracleInjector is the per-slot injector the scheduled streams
// replaced: every slot it tests each masked tag of the memoryless
// processes (feedback, brownouts, clock jitter) with one Bool draw on
// that process's fork. It runs reader outages and fades through an
// embedded Injector whose plan holds only those two sections, and
// writes the memoryless faults into that Injector's buffers, census
// and tracer, so the two injectors differ only in how the memoryless
// processes draw.
type oracleInjector struct {
	*Injector
	plan                          Plan
	fbRNG, brownRNG, jitterRNG    *sim.Rand
	fbMask, brownMask, jitterMask []bool
}

func newOracleInjector(plan Plan, seed uint64, numTags int, tr *obs.Tracer) (*oracleInjector, error) {
	markov := Plan{Name: plan.Name, Fades: plan.Fades, ReaderOutages: plan.ReaderOutages}
	inj, err := NewInjector(markov, seed, numTags, tr)
	if err != nil {
		return nil, err
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	// The forks in NewInjector's order: 1 fades, 2 feedback,
	// 3 brownouts, 4 outages, 5 clock jitter.
	root := sim.NewRand(seed ^ 0xFA17)
	root.Fork(1)
	fb, brown := root.Fork(2), root.Fork(3)
	root.Fork(4)
	o := &oracleInjector{Injector: inj, plan: plan, fbRNG: fb, brownRNG: brown, jitterRNG: root.Fork(5)}
	if plan.Feedback != nil {
		o.fbMask = tagSet(plan.Feedback.Tags, inj.tids)
	}
	if plan.Brownouts != nil {
		o.brownMask = tagSet(plan.Brownouts.Tags, inj.tids)
	}
	if plan.ClockJitter != nil {
		o.jitterMask = tagSet(plan.ClockJitter.Tags, inj.tids)
	}
	return o, nil
}

func (o *oracleInjector) BeginSlot(slot int) *mac.SlotFaults {
	inj := o.Injector
	fs := inj.BeginSlot(slot)
	inj.dirty = true // the loops below may set buffers the next BeginSlot must clear

	// Feedback: memoryless loss / ACK corruption per tag.
	if f := o.plan.Feedback; f != nil {
		for i := 0; i < len(inj.tids); i++ {
			if !o.fbMask[i] {
				continue
			}
			if f.LossProb > 0 && o.fbRNG.Bool(f.LossProb) {
				fs.BeaconLoss = inj.lossBuf
				fs.BeaconLoss[i] = true
				inj.emit(faultBeaconLoss, slot, i+1, 0)
			}
			if f.CorruptProb > 0 && o.fbRNG.Bool(f.CorruptProb) {
				fs.CorruptACK = inj.corruptBuf
				fs.CorruptACK[i] = true
				inj.emit(faultAckCorrupt, slot, i+1, 0)
			}
		}
	}

	// Brownouts: forced drains with geometric off-times.
	if b := o.plan.Brownouts; b != nil && b.Prob > 0 {
		for i := 0; i < len(inj.tids); i++ {
			if !o.brownMask[i] {
				continue
			}
			if o.brownRNG.Bool(b.Prob) {
				off := 1
				if b.OffSlots > 1 {
					// Geometric with mean OffSlots, support >= 1.
					off = 1 + int(math.Floor(o.brownRNG.ExpFloat64()*(b.OffSlots-1)))
				}
				fs.Brownout, fs.RejoinDelay = inj.brownBuf, inj.rejoinBuf
				fs.Brownout[i] = true
				fs.RejoinDelay[i] = off
				inj.emit(faultBrownout, slot, i+1, float64(off))
			}
		}
	}

	// Clock jitter: memoryless slot-boundary slips.
	if j := o.plan.ClockJitter; j != nil && j.SlipProb > 0 {
		for i := 0; i < len(inj.tids); i++ {
			if !o.jitterMask[i] {
				continue
			}
			if o.jitterRNG.Bool(j.SlipProb) {
				fs.SlipSlot = inj.slipBuf
				fs.SlipSlot[i] = true
				inj.emit(faultJitterSlip, slot, i+1, 0)
			}
		}
	}

	return fs
}

// equalSlotFaults compares two slot environments field by field,
// slices included (nil and set must match too).
func equalSlotFaults(a, b *mac.SlotFaults) bool {
	same := func(x, y []bool) bool { return (x == nil) == (y == nil) && slices.Equal(x, y) }
	return a.ReaderDown == b.ReaderDown && a.ReaderReset == b.ReaderReset &&
		same(a.BeaconLoss, b.BeaconLoss) && same(a.CorruptACK, b.CorruptACK) &&
		same(a.SlipSlot, b.SlipSlot) && same(a.Brownout, b.Brownout) &&
		(a.ULFailProb == nil) == (b.ULFailProb == nil) && slices.Equal(a.ULFailProb, b.ULFailProb) &&
		(a.RejoinDelay == nil) == (b.RejoinDelay == nil) && slices.Equal(a.RejoinDelay, b.RejoinDelay)
}

// exactThreshold is ⌈p·2⁵³⌉ in exact arithmetic.
func exactThreshold(p float64) uint64 {
	f := new(big.Float).SetFloat64(p)
	i, acc := f.SetMantExp(f, 53).Int(nil)
	if acc == big.Below {
		i.Add(i, big.NewInt(1))
	}
	return i.Uint64()
}

// streamProbs lists the probability of every position of each of the
// plan's memoryless patterns, in pattern order: what the compiled
// streams must hold.
func streamProbs(plan Plan, numTags int) [3][]float64 {
	var out [3][]float64
	for i := 0; i < numTags; i++ {
		if f := plan.Feedback; f != nil && inTags(f.Tags, i+1) {
			for _, p := range []float64{f.LossProb, f.CorruptProb} {
				if p > 0 {
					out[0] = append(out[0], p)
				}
			}
		}
		if b := plan.Brownouts; b != nil && inTags(b.Tags, i+1) && b.Prob > 0 {
			out[1] = append(out[1], b.Prob)
		}
		if j := plan.ClockJitter; j != nil && inTags(j.Tags, i+1) && j.SlipProb > 0 {
			out[2] = append(out[2], j.SlipProb)
		}
	}
	return out
}

// oraclePlans are the hand plans of TestScheduledInjectorMatchesOracle:
// zero and certain probabilities, partial and out-of-range tag masks,
// every process at once, short brownouts, and probabilities too small
// to hit within a scan's reach.
func oraclePlans() []Plan {
	return []Plan{
		{Name: "zero", Feedback: &FeedbackSpec{LossProb: 0, CorruptProb: 0.01},
			Brownouts: &BrownoutSpec{Prob: 0}, ClockJitter: &JitterSpec{SlipProb: 0}},
		{Name: "certain-loss", Feedback: &FeedbackSpec{LossProb: 1, CorruptProb: 0.3},
			ClockJitter: &JitterSpec{SlipProb: 0.02}},
		{Name: "certain-corrupt", Feedback: &FeedbackSpec{LossProb: 0.05, CorruptProb: 1, Tags: []int{1, 3}}},
		{Name: "certain-brownout", Brownouts: &BrownoutSpec{Prob: 1, OffSlots: 4, Tags: []int{2}},
			ClockJitter: &JitterSpec{SlipProb: 1, Tags: []int{1}}},
		{Name: "certain-all", Feedback: &FeedbackSpec{LossProb: 1, CorruptProb: 1},
			Brownouts: &BrownoutSpec{Prob: 1, OffSlots: 1}, ClockJitter: &JitterSpec{SlipProb: 1}},
		{Name: "masks", Feedback: &FeedbackSpec{LossProb: 0.01, CorruptProb: 0.02, Tags: []int{2, 5, 5, 99}},
			Brownouts:   &BrownoutSpec{Prob: 0.01, OffSlots: 6, Tags: []int{0, 1, 16}},
			ClockJitter: &JitterSpec{SlipProb: 0.01, Tags: []int{3, 4}}},
		moderatePlan(),
		{Name: "short-brownouts", Brownouts: &BrownoutSpec{Prob: 0.05, OffSlots: 1},
			Feedback: &FeedbackSpec{CorruptProb: 0.01}},
		{Name: "brownouts-1.5", Brownouts: &BrownoutSpec{Prob: 0.05, OffSlots: 1.5}},
		{Name: "busy", Feedback: &FeedbackSpec{LossProb: 0.5, CorruptProb: 1.0 / 3},
			Brownouts: &BrownoutSpec{Prob: 0.2, OffSlots: 3}, ClockJitter: &JitterSpec{SlipProb: 1 - 0x1p-53}},
		{Name: "rare", Feedback: &FeedbackSpec{LossProb: 0x1p-60, CorruptProb: 0.0005},
			Brownouts: &BrownoutSpec{Prob: 1e-7, OffSlots: 10}, ClockJitter: &JitterSpec{SlipProb: 0x1p-60}},
		{Name: "fades-and-outages", Fades: &FadeSpec{Burst: Burst{EnterProb: 0.02, MeanSlots: 4},
			DepthDB: 6, BeaconLossProb: 0.3, Tags: []int{1, 2}},
			ReaderOutages: &OutageSpec{Burst: Burst{EnterProb: 0.01, MeanSlots: 3}, ResetOnRestart: true},
			Feedback:      &FeedbackSpec{LossProb: 0.02}, ClockJitter: &JitterSpec{SlipProb: 0.02}},
	}
}

// TestScheduledInjectorMatchesOracle: the scheduled streams must give
// the per-slot Bool loops' fault environment in every slot — every
// SlotFaults flag and slice, the ordered fault events and the census
// — on RandomPlan seeds 1–200 and on the hand plans, for 1 to 16 tags;
// and each compiled threshold must be the exact ⌈p·2⁵³⌉.
func TestScheduledInjectorMatchesOracle(t *testing.T) {
	const slots = 5000
	type trial struct {
		plan    Plan
		seed    uint64
		numTags int
	}
	var trials []trial
	for seed := uint64(1); seed <= 200; seed++ {
		trials = append(trials, trial{RandomPlan(seed), seed, 1 + int(seed%16)})
	}
	for i, plan := range oraclePlans() {
		for _, numTags := range []int{1, 5, 16} {
			trials = append(trials, trial{plan, uint64(100 + i), numTags})
		}
	}
	for _, tc := range trials {
		name := fmt.Sprintf("%s/seed %d/%d tags", tc.plan.Name, tc.seed, tc.numTags)
		sinkS, sinkO := obs.NewMemorySink(), obs.NewMemorySink()
		inj, err := NewInjector(tc.plan, tc.seed, tc.numTags, obs.New(sinkS))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		oracle, err := newOracleInjector(tc.plan, tc.seed, tc.numTags, obs.New(sinkO))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for k, probs := range streamProbs(tc.plan, tc.numTags) {
			st := &inj.streams[k]
			if len(st.pos) != len(probs) {
				t.Fatalf("%s: stream %d has %d positions, want %d", name, k, len(st.pos), len(probs))
			}
			for j, thr := range st.thr {
				p, want := probs[j%len(probs)], uint64(sim.Certain)
				if p < 1 {
					want = exactThreshold(p)
				}
				if thr != want {
					t.Fatalf("%s: stream %d entry %d (p = %v) threshold %d, want %d", name, k, j, p, thr, want)
				}
			}
		}
		for slot := 0; slot < slots; slot++ {
			got, want := inj.BeginSlot(slot), oracle.BeginSlot(slot)
			if !equalSlotFaults(got, want) {
				t.Fatalf("%s: slot %d:\n got %+v\nwant %+v", name, slot, *got, *want)
			}
			// Compare the slot's events and drop them, which keeps a
			// busy plan's buffers small.
			if sinkS.Len()+sinkO.Len() == 0 {
				continue
			}
			if evS, evO := sinkS.Events(), sinkO.Events(); !reflect.DeepEqual(evS, evO) {
				t.Fatalf("%s: slot %d fault events:\n got %+v\nwant %+v", name, slot, evS, evO)
			}
			sinkS.Reset()
			sinkO.Reset()
		}
		if got, want := inj.Injected(), oracle.Injected(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: census %v, want %v", name, got, want)
		}
	}
}

// speedupVsOracle times kernel and oracle in alternating blocks of
// rounds calls and returns the ratio of their fastest blocks, which
// holds steady on a loaded host where one pass of each would not.
func speedupVsOracle(rounds int, kernel, oracle func()) float64 {
	block := func(fn func()) float64 {
		start := time.Now() //lint:allow determinism-taint wall-clock measurement for the speedup-vs-oracle metric, not simulation state
		for i := 0; i < rounds; i++ {
			fn()
		}
		return float64(time.Since(start).Nanoseconds()) //lint:allow determinism-taint wall-clock measurement for the speedup-vs-oracle metric, not simulation state
	}
	k, o := math.Inf(1), math.Inf(1)
	for rep := 0; rep < 5; rep++ {
		o = math.Min(o, block(oracle))
		k = math.Min(k, block(kernel))
	}
	return o / k
}

// BenchmarkInjector runs one slot of the fleet-sweep chaos plan
// (testdata/chaos-plan.json: feedback loss 0.002, corruption 0.001,
// brownouts 0.0005) for the 12 tags of c3 per op. It reports
// "speedup-vs-oracle" against the per-slot Bool loops and must run at
// zero allocations (both asserted by make bench-smoke).
func BenchmarkInjector(b *testing.B) {
	plan, err := LoadPlanFile("../../testdata/chaos-plan.json")
	if err != nil {
		b.Fatal(err)
	}
	const numTags = 12
	inj, err := NewInjector(plan, 1, numTags, nil)
	if err != nil {
		b.Fatal(err)
	}
	oracle, err := newOracleInjector(plan, 1, numTags, nil)
	if err != nil {
		b.Fatal(err)
	}
	slot, oracleSlot := 0, 0
	speedup := speedupVsOracle(20_000,
		func() { inj.BeginSlot(slot); slot++ },
		func() { oracle.BeginSlot(oracleSlot); oracleSlot++ })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inj.BeginSlot(slot)
		slot++
	}
	b.ReportMetric(speedup, "speedup-vs-oracle")
}
