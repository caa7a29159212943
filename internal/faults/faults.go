// Package faults is the deterministic fault-injection layer: a
// seedable engine that composes hostile-channel fault processes —
// transient per-tag fades with Markov burst durations, downlink
// feedback loss and corruption, mid-slot supercapacitor brownouts,
// reader carrier dropouts, and clock jitter on slot boundaries — behind
// a single Plan that compiles into a mac.FaultSource for the slot-level
// simulator and into channel/energy hooks for the event-level system.
//
// The design contract mirrors the fleet pool's: determinism at scale.
// An Injector's entire fault sequence is a pure function of (Plan,
// seed, tag count); every random draw happens in a fixed slot/tag
// order, so chaos sweeps are bit-identical across runs and worker
// counts. Every injected fault is emitted as an obs.KindFaultInject
// trace event, which is what the recovery analysis (RecoveryReport) and
// the protocol-invariant checks consume.
package faults

import (
	"fmt"
	"math"
	"slices"
)

// Burst is a two-state Markov (Gilbert-Elliott) process at slot
// granularity: each slot outside a burst enters one with probability
// EnterProb; inside, the burst ends each slot with probability
// 1/MeanSlots, so burst lengths are geometric with the given mean —
// the bursty multi-dB fades and interference windows reported for
// intra-vehicle energy-harvesting links.
type Burst struct {
	// EnterProb is the per-slot probability of starting a burst.
	EnterProb float64 `json:"enter_prob"`
	// MeanSlots is the mean burst duration in slots (>= 1).
	MeanSlots float64 `json:"mean_slots"`
}

func (b Burst) validate(what string) error {
	if b.EnterProb < 0 || b.EnterProb > 1 {
		return fmt.Errorf("faults: %s enter_prob %v outside [0, 1]", what, b.EnterProb)
	}
	if b.EnterProb > 0 && b.MeanSlots < 1 {
		return fmt.Errorf("faults: %s mean_slots %v < 1", what, b.MeanSlots)
	}
	return nil
}

// active reports whether the process injects anything at all.
func (b Burst) active() bool { return b.EnterProb > 0 }

// exitProb is the per-slot probability an ongoing burst ends.
func (b Burst) exitProb() float64 {
	if b.MeanSlots <= 1 {
		return 1
	}
	return 1 / b.MeanSlots
}

// FadeSpec injects transient per-tag channel fades: while a tag's fade
// burst is active, its uplink SNR drops by DepthDB, solo uplinks fail
// decode with ULFailProb, and beacons are additionally lost with
// BeaconLossProb.
type FadeSpec struct {
	Burst
	// DepthDB is the SNR penalty while faded; it drives the event-level
	// channel-gain hook and, when ULFailProb is zero, derives it.
	DepthDB float64 `json:"depth_db,omitempty"`
	// ULFailProb is the probability a solo uplink fails decode while
	// the fade is active; 0 derives 1 - exp(-DepthDB/6) — roughly 40%
	// loss at 3 dB, 80% at 9 dB, matching the steep PER cliff of the
	// FM0 link budget.
	ULFailProb float64 `json:"ul_fail_prob,omitempty"`
	// BeaconLossProb is the extra per-slot downlink loss while faded
	// (the downlink has far more margin, so the default is 0).
	BeaconLossProb float64 `json:"beacon_loss_prob,omitempty"`
	// Tags restricts the fault to these tag ids (the slots engine numbers
	// its tags 1..n, the network uses its TIDs); empty = all.
	Tags []int `json:"tags,omitempty"`
}

// ulFail resolves the effective decode-failure probability.
func (f FadeSpec) ulFail() float64 {
	if f.ULFailProb > 0 {
		return f.ULFailProb
	}
	if f.DepthDB > 0 {
		return 1 - math.Exp(-f.DepthDB/6)
	}
	return 0
}

// FeedbackSpec injects memoryless downlink feedback faults: whole-beacon
// loss and single-flag corruption (the beacon has no CRC, Sec. 4.2, so
// a flipped ACK bit passes the decoder undetected).
type FeedbackSpec struct {
	// LossProb is the per-slot per-tag probability the beacon is lost.
	LossProb float64 `json:"loss_prob,omitempty"`
	// CorruptProb is the per-slot per-tag probability the received ACK
	// flag is inverted.
	CorruptProb float64 `json:"corrupt_prob,omitempty"`
	// Tags restricts the fault to these tag ids (the slots engine numbers
	// its tags 1..n, the network uses its TIDs); empty = all.
	Tags []int `json:"tags,omitempty"`
}

// BrownoutSpec injects mid-slot supercapacitor drains: the afflicted
// tag loses its response on air and all volatile protocol state, stays
// dark while it recharges, then rejoins as a newcomer — the weak-far-tag
// duty-cycle starvation path.
type BrownoutSpec struct {
	// Prob is the per-slot per-tag probability of a forced drain.
	Prob float64 `json:"prob"`
	// OffSlots is the mean number of whole slots the tag stays dark
	// (geometric, >= 1); it models the LTH->HTH recharge time.
	OffSlots float64 `json:"off_slots"`
	// Tags restricts the fault to these tag ids (the slots engine numbers
	// its tags 1..n, the network uses its TIDs); empty = all.
	Tags []int `json:"tags,omitempty"`
}

// OutageSpec injects reader carrier dropouts: while the outage burst is
// active no beacon is broadcast, tags migrate on their beacon-loss
// timers, and browned-out tags cannot recharge.
type OutageSpec struct {
	Burst
	// ResetOnRestart makes the recovering reader broadcast RESET (a
	// restart that lost the ledger) instead of resuming its belief.
	ResetOnRestart bool `json:"reset_on_restart,omitempty"`
}

// JitterSpec injects clock jitter on slot boundaries: with SlipProb a
// tag samples the beacon across the boundary and loses the slot,
// indistinguishable from a beacon loss at the protocol layer.
type JitterSpec struct {
	// SlipProb is the per-slot per-tag probability of a boundary slip.
	SlipProb float64 `json:"slip_prob"`
	// Tags restricts the fault to these tag ids (the slots engine numbers
	// its tags 1..n, the network uses its TIDs); empty = all.
	Tags []int `json:"tags,omitempty"`
}

// Plan composes the fault processes of one chaos scenario. The zero
// value injects nothing; nil sections are disabled. Plans are
// JSON-native (see LoadPlanFile) so chaos sweeps are reproducible from
// a checked-in file plus a seed.
type Plan struct {
	// Name labels the plan in reports and traces.
	Name string `json:"name,omitempty"`
	// Fades: transient per-tag channel fades with Markov bursts.
	Fades *FadeSpec `json:"fades,omitempty"`
	// Feedback: downlink beacon loss and ACK corruption.
	Feedback *FeedbackSpec `json:"feedback,omitempty"`
	// Brownouts: mid-slot supercapacitor drains.
	Brownouts *BrownoutSpec `json:"brownouts,omitempty"`
	// ReaderOutages: carrier dropout/restart windows.
	ReaderOutages *OutageSpec `json:"reader_outages,omitempty"`
	// ClockJitter: slot-boundary clock slips.
	ClockJitter *JitterSpec `json:"clock_jitter,omitempty"`
}

// Empty reports whether the plan injects nothing.
func (p Plan) Empty() bool {
	return (p.Fades == nil || !p.Fades.active()) &&
		(p.Feedback == nil || (p.Feedback.LossProb <= 0 && p.Feedback.CorruptProb <= 0)) &&
		(p.Brownouts == nil || p.Brownouts.Prob <= 0) &&
		(p.ReaderOutages == nil || !p.ReaderOutages.active()) &&
		(p.ClockJitter == nil || p.ClockJitter.SlipProb <= 0)
}

func probRange(what string, v float64) error {
	if v < 0 || v > 1 {
		return fmt.Errorf("faults: %s %v outside [0, 1]", what, v)
	}
	return nil
}

// Validate checks every section's parameters.
func (p Plan) Validate() error {
	if f := p.Fades; f != nil {
		if err := f.validate("fades"); err != nil {
			return err
		}
		if err := probRange("fades ul_fail_prob", f.ULFailProb); err != nil {
			return err
		}
		if err := probRange("fades beacon_loss_prob", f.BeaconLossProb); err != nil {
			return err
		}
		if f.DepthDB < 0 {
			return fmt.Errorf("faults: fades depth_db %v negative", f.DepthDB)
		}
	}
	if f := p.Feedback; f != nil {
		if err := probRange("feedback loss_prob", f.LossProb); err != nil {
			return err
		}
		if err := probRange("feedback corrupt_prob", f.CorruptProb); err != nil {
			return err
		}
	}
	if b := p.Brownouts; b != nil {
		if err := probRange("brownouts prob", b.Prob); err != nil {
			return err
		}
		if b.Prob > 0 && b.OffSlots < 1 {
			return fmt.Errorf("faults: brownouts off_slots %v < 1", b.OffSlots)
		}
	}
	if o := p.ReaderOutages; o != nil {
		if err := o.validate("reader_outages"); err != nil {
			return err
		}
	}
	if j := p.ClockJitter; j != nil {
		if err := probRange("clock_jitter slip_prob", j.SlipProb); err != nil {
			return err
		}
	}
	return nil
}

// tagSet expands a tag-id filter into a membership mask
// over the tags with ids tids; an empty filter selects every tag.
func tagSet(tags, tids []int) []bool {
	mask := make([]bool, len(tids))
	for i, tid := range tids {
		mask[i] = inTags(tags, tid)
	}
	return mask
}

// inTags reports whether a tag-id filter selects the tag with id tid;
// an empty filter selects every tag.
func inTags(tags []int, tid int) bool {
	return len(tags) == 0 || slices.Contains(tags, tid)
}
