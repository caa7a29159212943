package arachnet

import (
	"fmt"
	"strings"

	"repro/internal/biw"
	"repro/internal/dsp"
	"repro/internal/mac"
	"repro/internal/mcu"
	"repro/internal/obs"
	"repro/internal/phy"
	"repro/internal/reader"
	"repro/internal/sim"
	"repro/internal/tag"
)

// Network is the full event-level ARACHNET system: the ONVO L60 BiW
// channel, one reader, and up to 12 battery-free tags.
type Network struct {
	Cfg        NetworkConfig
	Deployment *biw.Deployment
	Channel    *biw.Channel
	Link       *LinkModel
	Reader     *reader.Device

	engine *sim.Engine
	// wfNoise draws the waveform-mode channel noise.
	wfNoise *sim.Rand
	// Waveform-mode sample buffer and decoder scratch, reused across
	// slots so a thousand-slot run composes and decodes every capture
	// without a per-slot allocation.
	wfSamples []float64
	wfScratch dsp.SlotScratch
	// beaconDecodes records (tid, time) of beacon decode completions
	// for the Fig. 13(b) sync-offset analysis: the last 4,096.
	beaconDecodes obs.Recent[BeaconDecode]
	// byTID holds the tag devices indexed by TID: the one tag index
	// (Tag) and the one tag order, used by the beacon fan-out, the fault
	// injector, the stats and the reports.
	byTID [phy.MaxTags]*tag.Device
}

// BeaconDecode is one tag's beacon decode completion event.
type BeaconDecode struct {
	TID uint8
	At  Time
}

// NewNetwork builds and wires the system. Tags marked StartCharged are
// energized before the reader's first (RESET) beacon; the rest charge
// from empty through the multiplier, arriving late exactly as in the
// deployment (4-66 s depending on position).
//
// Internally this is snapshot-then-clone (see NetworkSnapshot): the
// per-config state is frozen and one clone is stamped out. Callers
// building many networks for the same config should hold the snapshot
// and Clone per trial instead.
func NewNetwork(cfg NetworkConfig) (*Network, error) {
	sn, err := NewNetworkSnapshot(cfg)
	if err != nil {
		return nil, err
	}
	return sn.Clone(cfg.Seed, cfg.Trace)
}

// Every tag's envelope detector is the same circuit: an RC envelope
// with this time constant (s) into a comparator at this level (V).
const (
	envelopeTau         = 80e-6
	comparatorThreshold = 0.05
)

// deliverBeacon fans the reader's envelope edges out to every tag with
// per-tag propagation and comparator delays. Tags are visited in id
// order (byTID, filled once by Clone), each tag's edges in beacon
// order: the engine breaks equal-timestamp ties in queueing order, so
// iterating the tag map directly would let map order pick which of two
// coincident edges fires first.
func (n *Network) deliverBeacon(bx reader.BeaconTx) {
	for id := range n.byTID {
		dev := n.byTID[id]
		if dev == nil {
			continue
		}
		prop, err := n.Deployment.TagDelay(id)
		if err != nil {
			continue
		}
		rise, err := n.Link.EnvelopeRiseDelay(id, envelopeTau, comparatorThreshold)
		if err != nil {
			continue
		}
		fall, err := n.Link.EnvelopeFallDelay(id, envelopeTau, comparatorThreshold)
		if err != nil {
			continue
		}
		if rise != rise || fall != fall || rise > 1 || fall > 1 {
			continue // NaN/Inf: carrier too weak at this tag
		}
		for _, e := range bx.Edges {
			delay := prop + rise
			if !e.Rising {
				delay = prop + fall
			}
			dev.QueueEdge(e.At+sim.FromSeconds(delay), e.Rising)
		}
	}
}

// deliverUplink scores a tag transmission against the channel and hands
// it to the reader.
func (n *Network) deliverUplink(tx tag.Transmission) {
	amp, err := n.Channel.BackscatterAmplitude(int(tx.TID))
	if err != nil {
		return
	}
	prob, err := n.Link.PacketSuccessProb(int(tx.TID), tx.ChipRate, len(tx.Chips))
	if err != nil {
		return
	}
	ev := reader.ULEvent{
		TID:        tx.TID,
		Start:      tx.Start,
		End:        tx.Start + tx.Duration(),
		Amplitude:  amp,
		DecodeProb: prob,
		Payload:    tx.Packet.Payload,
	}
	if n.Cfg.WaveformDecode {
		ev.Chips = tx.Chips // borrowed from the tag until its next burst
		ev.ChipRate = tx.ChipRate
	}
	n.Reader.OnTransmission(ev)
}

// Run advances the simulation to the given absolute time.
func (n *Network) Run(until Time) { n.engine.RunUntil(until) }

// Now returns the current simulation time.
func (n *Network) Now() Time { return n.engine.Now() }

// ResetProtocol broadcasts a RESET on the next beacon: the reader's
// ledger and convergence detector reinitialize and every powered tag
// re-enters MIGRATE with a fresh random offset — the paper's Fig. 15
// measurement primitive, exposed for repeated convergence experiments
// on a live network.
func (n *Network) ResetProtocol() { n.Reader.RequestReset() }

// SetCarrier switches the reader's power carrier on or off. With the
// carrier off the tags stop harvesting: they coast on their
// supercapacitors and brown out once the cutoff trips — the
// fault-injection path for power-interruption studies. Beacons keep
// being scheduled (the reader electronics are mains-powered), but tags
// with an empty capacitor cannot hear them.
func (n *Network) SetCarrier(on bool) {
	for id, dev := range n.byTID {
		if dev == nil {
			continue
		}
		if !on {
			dev.SetHarvestInput(0)
			continue
		}
		vp, err := n.Channel.TagPeakVoltage(int(id))
		if err != nil {
			continue
		}
		dev.SetHarvestInput(vp)
	}
}

// Tag returns the tag device with the given TID, or nil if the network
// has no such tag.
func (n *Network) Tag(tid uint8) *tag.Device {
	if int(tid) >= len(n.byTID) {
		return nil
	}
	return n.byTID[tid]
}

// SetDisplacement sets the monitored displacement for a sensor tag.
func (n *Network) SetDisplacement(tid uint8, meters float64) error {
	dev := n.Tag(tid)
	if dev == nil {
		return fmt.Errorf("arachnet: no tag %d", tid)
	}
	dev.SetDisplacement(meters)
	return nil
}

// Payloads returns the most recent decoded payloads for a tag.
func (n *Network) Payloads(tid uint8) []uint16 {
	return append([]uint16(nil), n.Reader.Payloads(tid)...)
}

// SyncOffsets computes the Fig. 13(b) metric: for each beacon decoded
// by both the reference tag and tag t, the signed time offset of t's
// decode completion relative to the reference. Offsets are grouped per
// tag; the reference tag maps to an all-zero series.
func (n *Network) SyncOffsets(referenceTID uint8) map[uint8][]Time {
	// Group decode events into beacons by proximity: events within half
	// a slot belong to the same beacon round.
	out := make(map[uint8][]Time)
	half := n.Cfg.SlotDuration / 2
	var round []BeaconDecode
	flush := func() {
		var ref Time
		found := false
		for _, e := range round {
			if e.TID == referenceTID {
				ref, found = e.At, true
				break
			}
		}
		if found {
			for _, e := range round {
				out[e.TID] = append(out[e.TID], e.At-ref)
			}
		}
		round = round[:0]
	}
	for _, e := range n.beaconDecodes.All() {
		if len(round) > 0 && e.At-round[0].At > half {
			flush()
		}
		round = append(round, e)
	}
	flush()
	return out
}

// TagPower summarizes one tag's measured power (Table 2 style) and
// protocol diagnostics.
type TagPower struct {
	TID            uint8
	RXMicrowatts   float64
	TXMicrowatts   float64
	IdleMicrowatts float64
	Activations    uint64
	BeaconsSeen    uint64
	BeaconsLost    uint64
	// Migrations counts offset re-randomizations — the protocol-level
	// churn this tag has been through.
	Migrations int
	Settled    bool
}

// NetworkStats is a snapshot of the running system.
type NetworkStats struct {
	Slots           int
	Decoded         uint64
	NonEmptyRatio   float64
	CollisionRatio  float64
	Converged       bool
	ConvergenceSlot int
	Tags            []TagPower
}

// Stats collects the current snapshot.
func (n *Network) Stats() NetworkStats {
	st := NetworkStats{
		Slots:           n.Reader.SlotsRun,
		Decoded:         n.Reader.Decoded,
		NonEmptyRatio:   n.Reader.Window.AverageNonEmptyRatio(),
		CollisionRatio:  n.Reader.Window.AverageCollisionRatio(),
		Converged:       n.Reader.Convergence.Converged(),
		ConvergenceSlot: n.Reader.Convergence.ConvergenceSlot(),
	}
	for id, dev := range n.byTID {
		if dev == nil {
			continue
		}
		m := dev.MCU.Meter()
		v := dev.MCU.Cfg.SupplyVolts
		seen, lost := dev.BeaconStats()
		st.Tags = append(st.Tags, TagPower{
			TID:            uint8(id),
			RXMicrowatts:   m.AveragePowerWatts(mcu.ModeRX, v) * 1e6,
			TXMicrowatts:   m.AveragePowerWatts(mcu.ModeTX, v) * 1e6,
			IdleMicrowatts: m.AveragePowerWatts(mcu.ModeIdle, v) * 1e6,
			Activations:    dev.Activations(),
			BeaconsSeen:    seen,
			BeaconsLost:    lost,
			Migrations:     dev.Proto.Migrations(),
			Settled:        dev.Proto.State() == mac.Settle,
		})
	}
	return st
}

// String renders the stats as a compact report.
func (s NetworkStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "slots=%d decoded=%d non-empty=%.3f collisions=%.3f converged=%v",
		s.Slots, s.Decoded, s.NonEmptyRatio, s.CollisionRatio, s.Converged)
	if s.Converged {
		fmt.Fprintf(&b, " (at slot %d)", s.ConvergenceSlot)
	}
	for _, t := range s.Tags {
		fmt.Fprintf(&b, "\n  tag %2d: rx=%.1fuW tx=%.1fuW idle=%.1fuW beacons=%d lost=%d activations=%d",
			t.TID, t.RXMicrowatts, t.TXMicrowatts, t.IdleMicrowatts, t.BeaconsSeen, t.BeaconsLost, t.Activations)
	}
	return b.String()
}
