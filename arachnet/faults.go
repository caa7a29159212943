package arachnet

import (
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Deterministic fault injection. internal/faults compiles a JSON fault
// plan (transient fades, feedback corruption, brownouts, reader
// outages, clock jitter) into a seeded injector; the slot engine hooks
// it in through mac.SlotSimConfig.Faults, and the event-level network
// compiles one for its own tags in AttachFaults below. Re-exported
// here so callers and the CLIs never import internal packages.

// Re-exported fault-injection types.
type (
	FaultPlan         = faults.Plan
	FaultBurst        = faults.Burst
	FaultFadeSpec     = faults.FadeSpec
	FaultBrownoutSpec = faults.BrownoutSpec
	FaultInjector     = faults.Injector
	RecoveryReport    = faults.RecoveryReport
	Recovery          = faults.Recovery
)

// NewFaultInjector compiles a plan for numTags tags with ids
// 1..numTags, the slots engine's tags (see faults.NewInjector).
func NewFaultInjector(plan FaultPlan, seed uint64, numTags int, tr *Tracer) (*FaultInjector, error) {
	return faults.NewInjector(plan, seed, numTags, tr)
}

// LoadFaultPlanFile reads and validates a JSON fault plan.
func LoadFaultPlanFile(path string) (FaultPlan, error) { return faults.LoadPlanFile(path) }

// UnmarshalFaultPlan parses and validates a JSON fault plan.
func UnmarshalFaultPlan(data []byte) (FaultPlan, error) { return faults.UnmarshalPlan(data) }

// AnalyzeRecovery computes the robustness metrics from a trace stream.
func AnalyzeRecovery(events []TraceEvent) RecoveryReport { return faults.Analyze(events) }

// AttachFaults compiles plan for the network's tags, in id order, and
// drives the injector from the network's clock; fault events go to the
// network's tracer. The plan's tag filters, the fault events and the
// per-tag faults all name the configured TIDs, whatever they are. Once
// per slot the injector advances its fault processes, fades are
// applied through the channel's GainOffsetDB hook, reader outages
// toggle the power carrier, and brownouts force-drain the afflicted
// tag's supercapacitor (the cutoff then powers the MCU down and the
// tag rejoins once recharged — the real recovery path, not a scripted
// one). MAC-level faults with no physical analogue at this layer
// (per-tag feedback corruption, clock slips) act only in the slots
// engine; the injector still draws and traces them, so a plan's fault
// census is engine-independent.
//
// Call it once, after NewNetwork and before Run; it must not race the
// running engine.
func (n *Network) AttachFaults(plan FaultPlan, seed uint64) (*FaultInjector, error) {
	var tids []int
	for id, dev := range n.byTID {
		if dev != nil {
			tids = append(tids, id)
		}
	}
	inj, err := faults.NewInjectorForTIDs(plan, seed, tids, n.Cfg.Trace)
	if err != nil {
		return nil, err
	}
	n.Channel.GainOffsetDB = inj.FadeDepthDB
	carrierDown := false
	var step func(now sim.Time)
	step = func(now sim.Time) {
		slot := int(now / n.Cfg.SlotDuration)
		fs := inj.BeginSlot(slot)
		if fs.ReaderDown != carrierDown {
			carrierDown = fs.ReaderDown
			n.SetCarrier(!carrierDown)
		}
		if fs.ReaderReset {
			n.ResetProtocol()
		}
		for i, hit := range fs.Brownout {
			if !hit {
				continue
			}
			faults.ForceBrownout(n.byTID[tids[i]].Harvester.Cap)
		}
		n.engine.After(n.Cfg.SlotDuration, "fault-slot", step)
	}
	n.engine.After(0, "fault-slot", step)
	return inj, nil
}

// FaultCensusString renders an injector's cumulative fault counts
// deterministically, for reports.
func FaultCensusString(inj *FaultInjector) string { return inj.CensusString() }

// NewChaosTracer returns a recovery folder and a tracer that feeds it.
// The tracer mutes slot open/close, engine events and decodes, the
// high-volume kinds the recovery analysis never reads, so a simulator
// attached to it never builds them (Tracer.Wants). Chaos fleet jobs
// record into one each; arachnet-sim -faults adds the tracer as a sink
// of its own tracer.
func NewChaosTracer() (*Recovery, *Tracer) {
	rec := faults.NewRecovery()
	tr := obs.New(rec)
	tr.Mute(obs.KindSlotOpen, obs.KindSlotClose, obs.KindSimEvent, obs.KindDecode)
	return rec, tr
}
