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
	counts   [numFaults]int

	// fs is the SlotFaults BeginSlot returns. Its slices are nil or the
	// matching buffer below; each BeginSlot clears the ones the previous
	// slot set, so a fault-free slot touches no buffer.
	fs                                     mac.SlotFaults
	lossBuf, corruptBuf, slipBuf, brownBuf []bool
	rejoinBuf                              []int
	ulFailBuf                              []float64
}

// fault is one kind of event the injector emits.
type fault uint8

const (
	faultOutageStart fault = iota
	faultOutageEnd
	faultReaderReset
	faultFadeStart
	faultFadeEnd
	faultBeaconLoss
	faultAckCorrupt
	faultBrownout
	faultJitterSlip
	numFaults
)

// faultNames gives each fault its trace kind and detail, and its census
// key "kind:detail" as a constant, so counting a fault never builds a
// string.
var faultNames = [numFaults]struct {
	kind        obs.Kind
	detail, key string
}{
	faultOutageStart: {obs.KindFaultInject, "outage_start", "fault_inject:outage_start"},
	faultOutageEnd:   {obs.KindFaultClear, "outage_end", "fault_clear:outage_end"},
	faultReaderReset: {obs.KindFaultInject, "reader_reset", "fault_inject:reader_reset"},
	faultFadeStart:   {obs.KindFaultInject, "fade_start", "fault_inject:fade_start"},
	faultFadeEnd:     {obs.KindFaultClear, "fade_end", "fault_clear:fade_end"},
	faultBeaconLoss:  {obs.KindFaultInject, "beacon_loss", "fault_inject:beacon_loss"},
	faultAckCorrupt:  {obs.KindFaultInject, "ack_corrupt", "fault_inject:ack_corrupt"},
	faultBrownout:    {obs.KindFaultInject, "brownout", "fault_inject:brownout"},
	faultJitterSlip:  {obs.KindFaultInject, "jitter_slip", "fault_inject:jitter_slip"},
}

// censusKey returns the census key "kind:detail" of a fault event:
// the constant for the injector's own faults, a built string otherwise.
func censusKey(kind obs.Kind, detail string) string {
	for _, f := range faultNames {
		if f.kind == kind && f.detail == detail {
			return f.key
		}
	}
	return string(kind) + ":" + detail
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

		lossBuf:    make([]bool, numTags),
		corruptBuf: make([]bool, numTags),
		slipBuf:    make([]bool, numTags),
		brownBuf:   make([]bool, numTags),
		rejoinBuf:  make([]int, numTags),
		ulFailBuf:  make([]float64, numTags),
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

// emit counts a fault and records its trace event (nil-safe via the
// tracer); tid and value are 0 where the fault has none.
func (inj *Injector) emit(f fault, slot, tid int, value float64) {
	inj.counts[f]++
	if inj.tr.Enabled() {
		n := &faultNames[f]
		inj.tr.Emit(obs.Event{Kind: n.kind, Slot: slot, TID: tid, Detail: n.detail, Value: value})
	}
}

// BeginSlot advances every fault process by one slot and returns the
// slot's fault environment. Slots must be presented in order (the
// simulator guarantees this); a gap or repeat indicates a harness bug.
// The result is the injector's scratch, valid until the next call.
//
//alloc:hot runs every slot of a chaos trial; the per-slot fault slices are reused buffers
func (inj *Injector) BeginSlot(slot int) *mac.SlotFaults {
	if slot != inj.nextSlot {
		outOfOrder(slot, inj.nextSlot)
	}
	inj.nextSlot++

	fs := &inj.fs
	clear(fs.BeaconLoss)
	clear(fs.CorruptACK)
	clear(fs.SlipSlot)
	clear(fs.ULFailProb)
	clear(fs.Brownout)
	clear(fs.RejoinDelay)
	*fs = mac.SlotFaults{}

	// Reader outage first: a dark slot still advances the burst
	// processes (the physical fades don't pause for the reader), but
	// the per-tag faults below are moot while no beacon exists.
	if o := inj.plan.ReaderOutages; o != nil && o.active() {
		if inj.outageActive {
			if inj.outageRNG.Bool(o.exitProb()) {
				inj.outageActive = false
				inj.emit(faultOutageEnd, slot, 0, float64(slot-inj.outageSince))
				if o.ResetOnRestart {
					inj.pendingReset = true
				}
			}
		} else if inj.outageRNG.Bool(o.EnterProb) {
			inj.outageActive = true
			inj.outageSince = slot
			inj.emit(faultOutageStart, slot, 0, 0)
		}
	}
	fs.ReaderDown = inj.outageActive
	if !inj.outageActive && inj.pendingReset {
		fs.ReaderReset = true
		inj.pendingReset = false
		// The restarted reader lost its ledger: replayed analyses clear
		// their settled model on this event.
		inj.emit(faultReaderReset, slot, 0, 0)
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
					inj.emit(faultFadeEnd, slot, i+1, float64(slot-(inj.fadeSince[i]-1)))
					inj.fadeSince[i] = 0
				}
			} else if inj.fadeRNG.Bool(f.EnterProb) {
				inj.fadeSince[i] = slot + 1 // +1 so slot 0 is representable
				inj.emit(faultFadeStart, slot, i+1, f.DepthDB)
			}
			if inj.fadeSince[i] != 0 {
				if ulFail > 0 {
					fs.ULFailProb = inj.ulFailBuf
					fs.ULFailProb[i] = ulFail
				}
				if f.BeaconLossProb > 0 && inj.fadeRNG.Bool(f.BeaconLossProb) {
					fs.BeaconLoss = inj.lossBuf
					fs.BeaconLoss[i] = true
					inj.emit(faultBeaconLoss, slot, i+1, 0)
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
				fs.BeaconLoss = inj.lossBuf
				fs.BeaconLoss[i] = true
				inj.emit(faultBeaconLoss, slot, i+1, 0)
			}
			if f.CorruptProb > 0 && inj.fbRNG.Bool(f.CorruptProb) {
				fs.CorruptACK = inj.corruptBuf
				fs.CorruptACK[i] = true
				inj.emit(faultAckCorrupt, slot, i+1, 0)
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
				fs.Brownout, fs.RejoinDelay = inj.brownBuf, inj.rejoinBuf
				fs.Brownout[i] = true
				fs.RejoinDelay[i] = off
				inj.emit(faultBrownout, slot, i+1, float64(off))
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
				fs.SlipSlot = inj.slipBuf
				fs.SlipSlot[i] = true
				inj.emit(faultJitterSlip, slot, i+1, 0)
			}
		}
	}

	return fs
}

// outOfOrder reports a BeginSlot gap or repeat. It stays out of line
// so the message formatting is not inlined into the //alloc:hot
// BeginSlot.
//
//go:noinline
func outOfOrder(slot, want int) {
	//lint:allow panic-hygiene slot-ordering invariant: callers drive BeginSlot monotonically by construction
	panic(fmt.Sprintf("faults: BeginSlot(%d) out of order, want %d", slot, want))
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
// e.g. "fault_inject:brownout", with an entry for every fault that
// fired at least once.
func (inj *Injector) Injected() map[string]int {
	out := make(map[string]int)
	for f, v := range inj.counts {
		if v > 0 {
			out[faultNames[f].key] = v
		}
	}
	return out
}

// InjectedTotal sums every injected fault (clears excluded).
func (inj *Injector) InjectedTotal() int {
	n := 0
	for f, v := range inj.counts {
		if faultNames[f].kind == obs.KindFaultInject {
			n += v
		}
	}
	return n
}

// CensusString renders the fault census deterministically (sorted keys)
// for reports.
func (inj *Injector) CensusString() string {
	census := inj.Injected()
	keys := make([]string, 0, len(census))
	for k := range census {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := ""
	for _, k := range keys {
		if s != "" {
			s += " "
		}
		s += fmt.Sprintf("%s=%d", k, census[k])
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
