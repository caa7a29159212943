package faults

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/energy"
	"repro/internal/mac"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Injector compiles a Plan into a running fault environment. It
// implements mac.FaultSource for the slot-level simulator and exposes
// FadeDepthDB for the event-level channel hook. All randomness comes
// from per-process forks of one seed, and BeginSlot draws in a fixed
// slot/tag order, so the full fault sequence is a pure function of
// (Plan, seed, tag count) — the determinism the fleet's chaos sweeps
// rely on.
type Injector struct {
	plan    Plan
	numTags int
	tr      *obs.Tracer

	// One independent stream per fault process, so adding a process to
	// a plan never perturbs the draws of the others.
	fadeRNG, fbRNG, brownRNG, outageRNG, jitterRNG *sim.Rand

	fadeMask, fbMask, brownMask, jitterMask []bool

	// Per-tag fade burst state: 0 = clear, else slot the fade started.
	fadeSince []int
	// Outage burst state.
	outageActive bool
	outageSince  int
	pendingReset bool

	nextSlot int
	counts   map[string]int
}

// NewInjector compiles the plan for a population of numTags tags. The
// tracer may be nil; fault events are then not recorded (the injection
// itself is unaffected).
func NewInjector(plan Plan, seed uint64, numTags int, tr *obs.Tracer) (*Injector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if numTags < 1 {
		return nil, fmt.Errorf("faults: numTags %d < 1", numTags)
	}
	root := sim.NewRand(seed ^ 0xFA17)
	inj := &Injector{
		plan:      plan,
		numTags:   numTags,
		tr:        tr,
		fadeRNG:   root.Fork(1),
		fbRNG:     root.Fork(2),
		brownRNG:  root.Fork(3),
		outageRNG: root.Fork(4),
		jitterRNG: root.Fork(5),
		fadeSince: make([]int, numTags),
		counts:    make(map[string]int),
	}
	if plan.Fades != nil {
		inj.fadeMask = tagSet(plan.Fades.Tags, numTags)
	}
	if plan.Feedback != nil {
		inj.fbMask = tagSet(plan.Feedback.Tags, numTags)
	}
	if plan.Brownouts != nil {
		inj.brownMask = tagSet(plan.Brownouts.Tags, numTags)
	}
	if plan.ClockJitter != nil {
		inj.jitterMask = tagSet(plan.ClockJitter.Tags, numTags)
	}
	return inj, nil
}

// emit records a fault event (nil-safe via the tracer).
func (inj *Injector) emit(ev obs.Event) {
	inj.counts[string(ev.Kind)+":"+ev.Detail]++
	if inj.tr.Enabled() {
		inj.tr.Emit(ev)
	}
}

// BeginSlot advances every fault process by one slot and returns the
// slot's fault environment. Slots must be presented in order (the
// simulator guarantees this); a gap or repeat indicates a harness bug.
func (inj *Injector) BeginSlot(slot int) mac.SlotFaults {
	if slot != inj.nextSlot {
		//lint:allow panic-hygiene slot-ordering invariant: callers drive BeginSlot monotonically by construction
		panic(fmt.Sprintf("faults: BeginSlot(%d) out of order, want %d", slot, inj.nextSlot))
	}
	inj.nextSlot++

	var fs mac.SlotFaults

	// Reader outage first: a dark slot still advances the burst
	// processes (the physical fades don't pause for the reader), but
	// the per-tag faults below are moot while no beacon exists.
	if o := inj.plan.ReaderOutages; o != nil && o.active() {
		if inj.outageActive {
			if inj.outageRNG.Bool(o.exitProb()) {
				inj.outageActive = false
				inj.emit(obs.Event{Kind: obs.KindFaultClear, Slot: slot, Detail: "outage_end",
					Value: float64(slot - inj.outageSince)})
				if o.ResetOnRestart {
					inj.pendingReset = true
				}
			}
		} else if inj.outageRNG.Bool(o.EnterProb) {
			inj.outageActive = true
			inj.outageSince = slot
			inj.emit(obs.Event{Kind: obs.KindFaultInject, Slot: slot, Detail: "outage_start"})
		}
	}
	fs.ReaderDown = inj.outageActive
	if !inj.outageActive && inj.pendingReset {
		fs.ReaderReset = true
		inj.pendingReset = false
		// The restarted reader lost its ledger: replayed analyses clear
		// their settled model on this event.
		inj.emit(obs.Event{Kind: obs.KindFaultInject, Slot: slot, Detail: "reader_reset"})
	}

	// Fades: per-tag Markov bursts, advanced in tag order.
	if f := inj.plan.Fades; f != nil && f.active() {
		ulFail := f.ulFail()
		for i := 0; i < inj.numTags; i++ {
			if !inj.fadeMask[i] {
				continue
			}
			if inj.fadeSince[i] != 0 {
				if inj.fadeRNG.Bool(f.exitProb()) {
					inj.emit(obs.Event{Kind: obs.KindFaultClear, Slot: slot, TID: i + 1,
						Detail: "fade_end", Value: float64(slot - (inj.fadeSince[i] - 1))})
					inj.fadeSince[i] = 0
				}
			} else if inj.fadeRNG.Bool(f.EnterProb) {
				inj.fadeSince[i] = slot + 1 // +1 so slot 0 is representable
				inj.emit(obs.Event{Kind: obs.KindFaultInject, Slot: slot, TID: i + 1,
					Detail: "fade_start", Value: f.DepthDB})
			}
			if inj.fadeSince[i] != 0 {
				if ulFail > 0 {
					if fs.ULFailProb == nil {
						fs.ULFailProb = make([]float64, inj.numTags)
					}
					fs.ULFailProb[i] = ulFail
				}
				if f.BeaconLossProb > 0 && inj.fadeRNG.Bool(f.BeaconLossProb) {
					if fs.BeaconLoss == nil {
						fs.BeaconLoss = make([]bool, inj.numTags)
					}
					fs.BeaconLoss[i] = true
					inj.emit(obs.Event{Kind: obs.KindFaultInject, Slot: slot, TID: i + 1,
						Detail: "beacon_loss"})
				}
			}
		}
	}

	// Feedback: memoryless loss / ACK corruption per tag.
	if f := inj.plan.Feedback; f != nil {
		for i := 0; i < inj.numTags; i++ {
			if !inj.fbMask[i] {
				continue
			}
			if f.LossProb > 0 && inj.fbRNG.Bool(f.LossProb) {
				if fs.BeaconLoss == nil {
					fs.BeaconLoss = make([]bool, inj.numTags)
				}
				fs.BeaconLoss[i] = true
				inj.emit(obs.Event{Kind: obs.KindFaultInject, Slot: slot, TID: i + 1,
					Detail: "beacon_loss"})
			}
			if f.CorruptProb > 0 && inj.fbRNG.Bool(f.CorruptProb) {
				if fs.CorruptACK == nil {
					fs.CorruptACK = make([]bool, inj.numTags)
				}
				fs.CorruptACK[i] = true
				inj.emit(obs.Event{Kind: obs.KindFaultInject, Slot: slot, TID: i + 1,
					Detail: "ack_corrupt"})
			}
		}
	}

	// Brownouts: forced drains with geometric off-times.
	if b := inj.plan.Brownouts; b != nil && b.Prob > 0 {
		for i := 0; i < inj.numTags; i++ {
			if !inj.brownMask[i] {
				continue
			}
			if inj.brownRNG.Bool(b.Prob) {
				off := 1
				if b.OffSlots > 1 {
					// Geometric with mean OffSlots, support >= 1.
					off = 1 + int(math.Floor(inj.brownRNG.ExpFloat64()*(b.OffSlots-1)))
				}
				if fs.Brownout == nil {
					fs.Brownout = make([]bool, inj.numTags)
					fs.RejoinDelay = make([]int, inj.numTags)
				}
				fs.Brownout[i] = true
				fs.RejoinDelay[i] = off
				inj.emit(obs.Event{Kind: obs.KindFaultInject, Slot: slot, TID: i + 1,
					Detail: "brownout", Value: float64(off)})
			}
		}
	}

	// Clock jitter: memoryless slot-boundary slips.
	if j := inj.plan.ClockJitter; j != nil && j.SlipProb > 0 {
		for i := 0; i < inj.numTags; i++ {
			if !inj.jitterMask[i] {
				continue
			}
			if inj.jitterRNG.Bool(j.SlipProb) {
				if fs.SlipSlot == nil {
					fs.SlipSlot = make([]bool, inj.numTags)
				}
				fs.SlipSlot[i] = true
				inj.emit(obs.Event{Kind: obs.KindFaultInject, Slot: slot, TID: i + 1,
					Detail: "jitter_slip"})
			}
		}
	}

	return fs
}

// FadeDepthDB returns the current extra path loss for a 1-based tag id
// — the event-level channel hook (biw.Channel.GainOffsetDB). Zero when
// the tag is not fading.
func (inj *Injector) FadeDepthDB(tid int) float64 {
	i := tid - 1
	if i < 0 || i >= inj.numTags || inj.plan.Fades == nil {
		return 0
	}
	if inj.fadeSince[i] != 0 {
		return inj.plan.Fades.DepthDB
	}
	return 0
}

// Injected returns the cumulative fault census keyed "kind:detail",
// e.g. "fault_inject:brownout". The map is a copy.
func (inj *Injector) Injected() map[string]int {
	out := make(map[string]int, len(inj.counts))
	for k, v := range inj.counts {
		out[k] = v
	}
	return out
}

// InjectedTotal sums every injected fault (clears excluded).
func (inj *Injector) InjectedTotal() int {
	n := 0
	for k, v := range inj.counts {
		if len(k) > len(obs.KindFaultInject) && k[:len(obs.KindFaultInject)] == string(obs.KindFaultInject) {
			n += v
		}
	}
	return n
}

// CensusString renders the fault census deterministically (sorted keys)
// for reports.
func (inj *Injector) CensusString() string {
	keys := make([]string, 0, len(inj.counts))
	for k := range inj.counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := ""
	for _, k := range keys {
		if s != "" {
			s += " "
		}
		s += fmt.Sprintf("%s=%d", k, inj.counts[k])
	}
	return s
}

// ForceBrownout drains c past empty so the withdrawal fails and the
// capacitor's own brownout trace event fires — the event-level
// injection path for BrownoutSpec (the slot-level path goes through
// mac.SlotFaults.Brownout instead).
func ForceBrownout(c *energy.Supercap) {
	// Demand strictly more than the stored energy over one second.
	p := c.EnergyJoules() + 1e-9
	c.Withdraw(p, 1)
}
