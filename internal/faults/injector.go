package faults

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/energy"
	"repro/internal/mac"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Injector compiles a Plan into a running fault environment. It
// implements mac.FaultSource for the slot-level simulator and exposes
// FadeDepthDB for the event-level channel hook. All randomness comes
// from per-process forks of one seed, and each process draws in a
// fixed slot/tag order, so the full fault sequence is a pure function
// of (Plan, seed, tag ids) — the determinism the fleet's chaos sweeps
// rely on. Tag i of the per-tag slices in mac.SlotFaults is tids[i].
type Injector struct {
	plan Plan
	tids []int
	tr   *obs.Tracer

	// One independent stream per fault process, so adding a process to
	// a plan never perturbs the draws of the others. The memoryless
	// processes (feedback, brownouts, clock jitter, in that order) draw
	// from their own streams[k].rng.
	fadeRNG, outageRNG sim.Rand
	streams            [3]stream

	fadeMask []bool

	// Per-tag fade burst state: 0 = clear, else slot the fade started.
	fadeSince []int
	// Outage burst state.
	outageActive bool
	outageSince  int
	pendingReset bool

	nextSlot int
	counts   [numFaults]int

	// fs is the SlotFaults BeginSlot returns. Its slices are nil or the
	// matching buffer below. dirty says the previous slot set a flag or
	// a slice; only then does BeginSlot clear them, so a fault-free slot
	// touches no buffer.
	fs                                     mac.SlotFaults
	dirty                                  bool
	lossBuf, corruptBuf, slipBuf, brownBuf []bool
	rejoinBuf                              []int
	ulFailBuf                              []float64
}

// scanAhead bounds how many slots past the current one a stream scans
// for its next hit, so a tiny probability never scans without end.
const scanAhead = 256

// stream schedules one memoryless fault process. Every slot the
// process tests the same pattern of positions in order, one (tag,
// fault) test of probability p each, as Bool(p) on rng: a word per
// test, none when p ≥ 1. A position with p ≤ 0 draws no word and is
// left out. Instead of testing slot by slot, the stream scans its
// words ahead with sim.Rand.FirstBelow, which consumes exactly the
// words of the Bool loop, and holds the first hit until the hit's own
// slot.
type stream struct {
	rng sim.Rand
	pos []streamPos // the pattern
	thr []uint64    // sim.BoolThreshold of pos[j % len(pos)].p

	// at is the absolute position slot·len(pos)+j of the pending hit
	// or, when hit is false, of the next position not yet tested.
	at  int
	hit bool
}

// streamPos is one position of a stream's per-slot pattern: a test of
// probability p that injects fault f on a 0-based tag.
type streamPos struct {
	tag int
	f   fault
	p   float64
}

// add appends a test to the pattern.
func (st *stream) add(tag int, f fault, p float64) {
	if p > 0 {
		st.pos = append(st.pos, streamPos{tag, f, p})
	}
}

// seal compiles the complete pattern into thr, repeated to at least
// thrSpan entries so that a long scan stays in FirstBelow's inner loop
// instead of wrapping every slot.
func (st *stream) seal() {
	n := len(st.pos)
	if n == 0 {
		return
	}
	st.thr = make([]uint64, n*((thrSpan+n-1)/n))
	for j := range st.thr {
		st.thr[j] = sim.BoolThreshold(st.pos[j%n].p)
	}
}

// thrSpan is the least length of a sealed stream.thr.
const thrSpan = 256

// due reports whether the stream's next hit falls in slot, scanning
// ahead for it when no hit is pending.
func (st *stream) due(slot int) bool {
	n := len(st.pos)
	end := (slot + 1) * n
	if !st.hit && st.at < end {
		tests, hit := st.rng.FirstBelow(st.thr, st.at%len(st.thr), (slot+scanAhead)*n-st.at)
		st.at += tests
		if hit {
			st.at-- // the hit is the last position tested
		}
		st.hit = hit
	}
	return st.hit && st.at < end
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

// NewInjector compiles the plan for a population of numTags tags with
// ids 1..numTags. The tracer may be nil; fault events are then not
// recorded (the injection itself is unaffected).
func NewInjector(plan Plan, seed uint64, numTags int, tr *obs.Tracer) (*Injector, error) {
	if numTags < 1 {
		return nil, fmt.Errorf("faults: numTags %d < 1", numTags)
	}
	tids := make([]int, numTags)
	for i := range tids {
		tids[i] = i + 1
	}
	return NewInjectorForTIDs(plan, seed, tids, tr)
}

// NewInjectorForTIDs compiles the plan for the tags with the given
// distinct ids, in that order: the plan's tag filters select by these
// ids, trace events carry them, and FadeDepthDB is asked by them.
func NewInjectorForTIDs(plan Plan, seed uint64, tids []int, tr *obs.Tracer) (*Injector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	numTags := len(tids)
	if numTags < 1 {
		return nil, fmt.Errorf("faults: no tags")
	}
	inj := &Injector{
		plan:      plan,
		tids:      tids,
		tr:        tr,
		fadeSince: make([]int, numTags),

		lossBuf:    make([]bool, numTags),
		corruptBuf: make([]bool, numTags),
		slipBuf:    make([]bool, numTags),
		brownBuf:   make([]bool, numTags),
		rejoinBuf:  make([]int, numTags),
		ulFailBuf:  make([]float64, numTags),
	}
	root := sim.NewRand(seed ^ 0xFA17)
	fb, brown, jitter := &inj.streams[0], &inj.streams[1], &inj.streams[2]
	inj.fadeRNG.ReseedFork(root, 1)
	fb.rng.ReseedFork(root, 2)
	brown.rng.ReseedFork(root, 3)
	inj.outageRNG.ReseedFork(root, 4)
	jitter.rng.ReseedFork(root, 5)
	if plan.Fades != nil {
		inj.fadeMask = tagSet(plan.Fades.Tags, tids)
	}
	for k, per := range [3]int{2, 1, 1} { // positions per tag
		inj.streams[k].pos = make([]streamPos, 0, per*numTags)
	}
	for i, tid := range tids {
		if f := plan.Feedback; f != nil && inTags(f.Tags, tid) {
			fb.add(i, faultBeaconLoss, f.LossProb)
			fb.add(i, faultAckCorrupt, f.CorruptProb)
		}
		if b := plan.Brownouts; b != nil && inTags(b.Tags, tid) {
			brown.add(i, faultBrownout, b.Prob)
		}
		if j := plan.ClockJitter; j != nil && inTags(j.Tags, tid) {
			jitter.add(i, faultJitterSlip, j.SlipProb)
		}
	}
	for k := range inj.streams {
		inj.streams[k].seal()
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
	if inj.dirty {
		clear(fs.BeaconLoss)
		clear(fs.CorruptACK)
		clear(fs.SlipSlot)
		clear(fs.ULFailProb)
		clear(fs.Brownout)
		clear(fs.RejoinDelay)
		*fs = mac.SlotFaults{}
		inj.dirty = false
	}

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
		fs.ReaderReset, inj.dirty = true, true
		inj.pendingReset = false
		// The restarted reader lost its ledger: replayed analyses clear
		// their settled model on this event.
		inj.emit(faultReaderReset, slot, 0, 0)
	}

	// Fades: per-tag Markov bursts, advanced in tag order.
	if f := inj.plan.Fades; f != nil && f.active() {
		ulFail := f.ulFail()
		for i, tid := range inj.tids {
			if !inj.fadeMask[i] {
				continue
			}
			if inj.fadeSince[i] != 0 {
				if inj.fadeRNG.Bool(f.exitProb()) {
					inj.emit(faultFadeEnd, slot, tid, float64(slot-(inj.fadeSince[i]-1)))
					inj.fadeSince[i] = 0
				}
			} else if inj.fadeRNG.Bool(f.EnterProb) {
				inj.fadeSince[i] = slot + 1 // +1 so slot 0 is representable
				inj.emit(faultFadeStart, slot, tid, f.DepthDB)
			}
			if inj.fadeSince[i] != 0 {
				if ulFail > 0 {
					fs.ULFailProb, inj.dirty = inj.ulFailBuf, true
					fs.ULFailProb[i] = ulFail
				}
				if f.BeaconLossProb > 0 && inj.fadeRNG.Bool(f.BeaconLossProb) {
					fs.BeaconLoss, inj.dirty = inj.lossBuf, true
					fs.BeaconLoss[i] = true
					inj.emit(faultBeaconLoss, slot, tid, 0)
				}
			}
		}
	}

	// The memoryless processes: feedback loss before ACK corruption per
	// tag, then brownouts, then clock slips, each hit in pattern order.
	for k := range inj.streams {
		st := &inj.streams[k]
		for len(st.pos) > 0 && st.due(slot) {
			inj.inject(st, slot)
		}
	}

	return fs
}

// inject applies a stream's pending hit, which falls in slot, and
// moves the stream's cursor past it. A brownout draws its off-time
// from the stream right after the hit word, as the Bool loop did.
func (inj *Injector) inject(st *stream, slot int) {
	p := st.pos[st.at%len(st.pos)]
	st.at++
	st.hit = false
	fs, i := &inj.fs, p.tag
	inj.dirty = true
	value := 0.0
	switch p.f {
	case faultBeaconLoss:
		fs.BeaconLoss = inj.lossBuf
		fs.BeaconLoss[i] = true
	case faultAckCorrupt:
		fs.CorruptACK = inj.corruptBuf
		fs.CorruptACK[i] = true
	case faultBrownout:
		off := 1
		if b := inj.plan.Brownouts; b.OffSlots > 1 {
			// Geometric with mean OffSlots, support >= 1.
			off = 1 + int(math.Floor(st.rng.ExpFloat64()*(b.OffSlots-1)))
		}
		fs.Brownout, fs.RejoinDelay = inj.brownBuf, inj.rejoinBuf
		fs.Brownout[i] = true
		fs.RejoinDelay[i] = off
		value = float64(off)
	case faultJitterSlip:
		fs.SlipSlot = inj.slipBuf
		fs.SlipSlot[i] = true
	}
	inj.emit(p.f, slot, inj.tids[i], value)
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

// FadeDepthDB returns the current extra path loss for a tag id — the
// event-level channel hook (biw.Channel.GainOffsetDB). Zero when the
// tag is not fading or not one of the injector's tags.
func (inj *Injector) FadeDepthDB(tid int) float64 {
	i := slices.Index(inj.tids, tid)
	if i < 0 || inj.plan.Fades == nil {
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
