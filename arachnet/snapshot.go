package arachnet

import (
	"repro/internal/biw"
	"repro/internal/mac"
	"repro/internal/obs"
	"repro/internal/phy"
	"repro/internal/reader"
	"repro/internal/sim"
	"repro/internal/tag"
)

// NetworkSnapshot freezes the per-config half of a network build. The
// deployment geometry, calibrated channel and link-model prototypes,
// the provisioned period table and every tag's harvest peak voltage are
// pure functions of the validated NetworkConfig — computing them per
// job made `NewNetwork` the fleet control plane's biggest fixed cost.
// A snapshot computes them once; Clone stamps out one Network per
// trial, reusing the frozen parts.
//
// The contract (see DESIGN.md "Snapshot/clone"):
//
//   - Immutable per config: the defaulted+validated config (minus Seed
//     and Trace), deployment, channel/link calibration constants,
//     period table, per-tag peak voltages. Shared by all clones;
//     never written after construction.
//   - Mutable per trial: the event engine, reader and tag devices, all
//     RNG streams (derived from the clone seed exactly as NewNetwork
//     derives them), the tracer, and the channel's GainOffsetDB fault
//     hook — each clone gets its own shallow Channel/LinkModel copy so
//     fault injection on one job cannot leak into a sibling.
//
// Snapshots are safe for concurrent Clone calls.
type NetworkSnapshot struct {
	cfg     NetworkConfig // defaults applied, validated; Seed/Trace zeroed
	dep     *biw.Deployment
	chProto biw.Channel
	lmProto LinkModel
	periods map[int]mac.Period
	peakV   []float64 // harvest peak volts, indexed like cfg.Tags
}

// NewNetworkSnapshot validates cfg and freezes its config-immutable
// parts. The Seed and Trace fields are ignored — they are per-trial
// inputs to Clone.
func NewNetworkSnapshot(cfg NetworkConfig) (*NetworkSnapshot, error) {
	cfg = cfg.withDefaults()
	cfg.Seed = 0
	cfg.Trace = nil
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	dep := biw.NewONVOL60()
	ch := biw.DefaultChannel(dep)
	link := DefaultLinkModel(ch)
	sn := &NetworkSnapshot{
		cfg:     cfg,
		dep:     dep,
		chProto: *ch,
		lmProto: *link,
		periods: make(map[int]mac.Period, len(cfg.Tags)),
		peakV:   make([]float64, len(cfg.Tags)),
	}
	for i, spec := range cfg.Tags {
		sn.periods[int(spec.TID)] = spec.Period
		vp, err := ch.TagPeakVoltage(int(spec.TID))
		if err != nil {
			return nil, err
		}
		sn.peakV[i] = vp
	}
	return sn, nil
}

// Config returns the frozen per-config state (Seed/Trace zeroed).
func (sn *NetworkSnapshot) Config() NetworkConfig { return sn.cfg }

// Clone builds one trial's network from the snapshot: bit-identical to
// NewNetwork with the same config, seed and tracer (the RNG fork order
// — reader, tags in spec order, waveform noise — is replayed exactly),
// but with the per-config work already paid. Each clone owns its
// Channel and LinkModel copies, so per-trial fault fades stay local.
//
//alloc:hot per-trial construction; deliberate escapes are pinned by the baseline
func (sn *NetworkSnapshot) Clone(seed uint64, trace *Tracer) (*Network, error) {
	cfg := sn.cfg
	cfg.Seed = seed
	cfg.Trace = trace

	engine := sim.NewEngine()
	engine.SetTracer(cfg.Trace)
	rng := sim.NewRand(cfg.Seed)
	ch := sn.chProto
	link := sn.lmProto
	link.Channel = &ch

	rd, err := reader.New(engine, cfg.readerConfig(), sn.periods, rng.Fork(0xFE))
	if err != nil {
		return nil, err
	}
	rd.SetTracer(cfg.Trace)

	n := &Network{
		Cfg:        cfg,
		Deployment: sn.dep,
		Channel:    &ch,
		Link:       &link,
		Reader:     rd,
		engine:     engine,

		beaconDecodes: obs.NewRecent[BeaconDecode](4096),
	}

	for i, spec := range cfg.Tags {
		tcfg := tag.DefaultConfig(spec.TID, spec.Period)
		tcfg.ULDivider = cfg.ULDivider
		tcfg.DLRate = cfg.DLRate
		tcfg.SlotDuration = cfg.SlotDuration
		tcfg.WithSensor = spec.WithSensor
		tcfg.Trace = cfg.Trace
		dev, err := tag.New(engine, tcfg, rng.Fork(uint64(spec.TID)))
		if err != nil {
			return nil, err
		}
		dev.SetHarvestInput(sn.peakV[i])
		if spec.StartCharged {
			dev.PreCharge()
		}
		tid := spec.TID
		dev.OnTransmit = func(tx tag.Transmission) { n.deliverUplink(tx) }
		dev.OnBeaconDecoded = func(_ phy.Command, at Time) {
			n.beaconDecodes.Add(BeaconDecode{TID: tid, At: at})
		}
		n.byTID[spec.TID] = dev
	}

	rd.Broadcast = n.deliverBeacon
	if cfg.WaveformDecode {
		n.wfNoise = rng.Fork(0xF0)
		rd.DecodeSlot = n.decodeSlotWaveform
	}
	rd.Start()
	return n, nil
}
