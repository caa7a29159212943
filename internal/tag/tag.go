// Package tag implements the battery-free tag's firmware and device
// model: the interrupt-driven software architecture of Sec. 4 running
// on the simulated MSP430 (package mcu), powered by the harvesting
// subsystem (package energy), executing the distributed slot allocation
// state machine (package mac).
//
// Everything the firmware does is driven by interrupts, exactly as the
// paper prescribes: GPIO edges demodulate PIE beacons, timer interrupts
// clock out FM0 chips, and a software interrupt after each complete
// beacon runs the network state machine. The CPU sleeps otherwise, and
// package mcu integrates the resulting power draw.
package tag

import (
	"fmt"

	"repro/internal/energy"
	"repro/internal/mac"
	"repro/internal/mcu"
	"repro/internal/obs"
	"repro/internal/phy"
	"repro/internal/pzt"
	"repro/internal/sim"
	"repro/internal/strain"
)

// Config holds a tag's provisioning.
type Config struct {
	// TID is the 4-bit tag identifier.
	TID uint8
	// Period is the transmission period in slots.
	Period mac.Period
	// ULDivider is the MCU clock divider for the uplink chip rate
	// (32 -> 375 bps by default).
	ULDivider int
	// DLRate is the downlink raw chip rate the firmware expects (bps).
	DLRate float64
	// SlotDuration is the nominal slot length.
	SlotDuration sim.Time
	// ReplyDelay is the pause between beacon decode and uplink start
	// (20 ms in the paper, Fig. 14a).
	ReplyDelay sim.Time
	// Stages is the voltage-multiplier stage count.
	Stages int
	// WithSensor attaches the strain module (Sec. 6.5).
	WithSensor bool
	// Trace, when set, receives brownout and cutoff transition events
	// from the energy subsystem, stamped with this tag's TID and the
	// engine clock. A nil tracer (the default) costs nothing.
	Trace *obs.Tracer
}

// DefaultConfig returns the paper's tag operating point.
func DefaultConfig(tid uint8, period mac.Period) Config {
	return Config{
		TID:          tid,
		Period:       period,
		ULDivider:    32,
		DLRate:       phy.DefaultDLRate,
		SlotDuration: sim.Second,
		ReplyDelay:   20 * sim.Millisecond,
		Stages:       8,
	}
}

// Transmission is the tag's announcement of an uplink backscatter
// burst; the channel layer carries it to the reader. Chips is the tag's
// buffer, borrowed: the tag's next transmission overwrites it, so a
// receiver that keeps the chips past the slot copies them.
type Transmission struct {
	TID      uint8
	Start    sim.Time
	ChipRate float64 // actual rate as clocked by this tag's skewed MCU
	Chips    phy.Bits
	Packet   phy.ULPacket
}

// Duration returns the on-air time of the burst.
func (t Transmission) Duration() sim.Time {
	return sim.FromSeconds(float64(len(t.Chips)) / t.ChipRate)
}

// Device is one complete tag.
type Device struct {
	Cfg       Config
	MCU       *mcu.MCU
	Harvester *energy.Harvester
	Proto     *mac.TagProtocol
	PZT       *pzt.Transducer
	Sensor    *strain.Sensor

	engine *sim.Engine
	rng    *sim.Rand

	// OnTransmit is the channel hook: called when the tag starts an
	// uplink burst.
	OnTransmit func(tx Transmission)
	// OnBeaconDecoded fires when a beacon fully decodes (used by the
	// Fig. 13b sync-offset measurement). The argument is the decode
	// completion time.
	OnBeaconDecoded func(cmd phy.Command, at sim.Time)

	// Harvest input: PZT peak voltage while the reader carrier is on.
	vp float64
	// Strain input for the sensor module (end displacement, meters).
	displacementM float64

	powered bool
	// Demodulator state: the received bits shift through dlShift, and
	// dlBits counts them since the last reset (in a frame: since the
	// preamble).
	ticksPerChip float64
	dlShift      uint16
	dlBits       int
	inFrame      bool
	// Beacon bookkeeping.
	beaconTimeout sim.Handle
	beaconsSeen   uint64
	beaconsLost   uint64
	// UL transmission state. txChips is reused for every frame.
	txChips phy.Bits
	txIdx   int
	txBusy  bool
	// Energy bookkeeping.
	lastCharge  float64 // meter charge at last energy tick
	energyTick  sim.Time
	energyLane  *sim.Lane // the engine's lane for energyTick, shared by every tag
	activations uint64
	// edges holds the DL edges the channel has queued for this tag.
	edges *sim.Cursor
	// Engine callbacks, bound once in New: scheduling a method value
	// or closure per event would allocate on every energy step, beacon
	// timeout, DL edge, uplink start and TX chip.
	energyFn, timeoutFn, riseFn, fallFn, ulFn, chipFn func(now sim.Time)
}

// New builds a tag device on the engine. The rng individualizes clock
// skew and protocol randomness.
func New(engine *sim.Engine, cfg Config, rng *sim.Rand) (*Device, error) {
	if cfg.TID >= phy.MaxTags {
		return nil, fmt.Errorf("tag: TID %d exceeds the 4-bit space", cfg.TID)
	}
	if cfg.ULDivider < 1 {
		return nil, fmt.Errorf("tag: invalid UL divider %d", cfg.ULDivider)
	}
	proto, err := mac.NewTagProtocol(cfg.Period, rng.Fork(1))
	if err != nil {
		return nil, err
	}
	d := &Device{
		Cfg:        cfg,
		MCU:        mcu.New(engine, mcu.DefaultConfig(), rng.Fork(2)),
		Harvester:  energy.NewHarvester(cfg.Stages),
		Proto:      proto,
		PZT:        pzt.New(),
		engine:     engine,
		rng:        rng.Fork(3),
		energyTick: 50 * sim.Millisecond,
		edges:      engine.NewCursor("dl-edge"),
		txChips:    make(phy.Bits, 0, 2*phy.ULFrameBits),
	}
	d.energyLane = engine.Lane(d.energyTick)
	if cfg.WithSensor {
		d.Sensor = strain.NewSensor()
	}
	if cfg.Trace != nil {
		clock := func() float64 { return engine.Now().Seconds() }
		sc := d.Harvester.Cap
		sc.Trace, sc.TraceTID, sc.Now = cfg.Trace, int(cfg.TID), clock
		co := d.Harvester.Cutoff
		co.Trace, co.TraceTID, co.Now = cfg.Trace, int(cfg.TID), clock
	}
	d.ticksPerChip = d.MCU.Cfg.ClockHz / cfg.DLRate // firmware uses the nominal clock
	d.energyFn = d.onEnergyTick
	d.timeoutFn = d.onBeaconTimeout
	d.riseFn = func(sim.Time) { d.InjectEnvelope(true) }
	d.fallFn = func(sim.Time) { d.InjectEnvelope(false) }
	d.ulFn = func(sim.Time) { d.startTransmission() }
	d.chipFn = d.onTXChip
	d.scheduleEnergyTick()
	return d, nil
}

// SetHarvestInput sets the PZT peak voltage the tag currently receives
// (the deployment computes it from the BiW channel).
func (d *Device) SetHarvestInput(vp float64) { d.vp = vp }

// SetDisplacement sets the monitored metal's end displacement.
func (d *Device) SetDisplacement(m float64) { d.displacementM = m }

// Powered reports whether the cutoff circuit is feeding the MCU.
func (d *Device) Powered() bool { return d.powered }

// PreCharge fills the supercapacitor to the activation threshold and
// powers the tag immediately — used by experiments that start from a
// fully charged fleet instead of waiting out the 4-66 s charge.
func (d *Device) PreCharge() {
	d.Harvester.Cap.SetVolts(d.Harvester.Cutoff.HighThreshold() + 0.05)
	if d.Harvester.Cutoff.Update(d.Harvester.Cap.Volts()) && !d.powered {
		d.powerUp()
	}
}

// Activations counts power-up events (including the first).
func (d *Device) Activations() uint64 { return d.activations }

// BeaconStats returns (decoded, lost-by-timeout) counts.
func (d *Device) BeaconStats() (seen, lost uint64) { return d.beaconsSeen, d.beaconsLost }

// scheduleEnergyTick integrates harvesting and consumption on a fixed
// cadence, driving power-up and brown-out transitions.
func (d *Device) scheduleEnergyTick() {
	d.energyLane.Push("tag-energy", d.energyFn)
}

func (d *Device) onEnergyTick(sim.Time) {
	d.integrateEnergy()
	d.scheduleEnergyTick()
}

func (d *Device) integrateEnergy() {
	meter := d.MCU.Meter()
	charge := meter.TotalCharge()
	dt := d.energyTick.Seconds()
	loadW := (charge - d.lastCharge) * d.MCU.Cfg.SupplyVolts / dt
	d.lastCharge = charge
	// The ADC burst energy is withdrawn separately on sampling; here
	// only the MCU's metered load applies.
	_, on := d.Harvester.Integrate(d.vp, loadW, dt)
	switch {
	case on && !d.powered:
		d.powerUp()
	case !on && d.powered:
		d.powerDown()
	}
}

// powerUp brings the firmware to its freshly-booted state: the tag is a
// late arrival (newcomer) in MIGRATE, listening for beacons.
func (d *Device) powerUp() {
	d.powered = true
	d.activations++
	d.Proto.Rejoin()
	d.MCU.SetMode(mcu.ModeIdle)
	d.resetDemod()
	d.MCU.In().OnEdge(mcu.EdgeISRCycles, d.onEdge)
	d.armBeaconTimeout()
}

// powerDown models the cutoff opening: all volatile state is lost.
func (d *Device) powerDown() {
	d.powered = false
	d.MCU.In().ClearHandler()
	d.MCU.Timer().StopPeriodic()
	d.MCU.SetMode(mcu.ModeIdle)
	d.engine.Cancel(d.beaconTimeout)
	d.txBusy = false
}

// armBeaconTimeout (re)starts the beacon-loss timer. The handle may
// name a timeout that already fired (an unpowered tag lets it lapse);
// cancelling that is a no-op even after the engine reuses its event.
func (d *Device) armBeaconTimeout() {
	d.engine.Cancel(d.beaconTimeout)
	// A beacon is expected every slot; allow 1.5 slots of grace.
	d.beaconTimeout = d.engine.After(d.Cfg.SlotDuration*3/2, "beacon-timeout", d.timeoutFn)
}

func (d *Device) onBeaconTimeout(sim.Time) {
	if !d.powered {
		return
	}
	d.beaconsLost++
	d.Proto.OnBeaconLoss()
	d.resetDemod()
	d.armBeaconTimeout()
}

// InjectEnvelope drives the comparator output pin (the channel calls
// this for each DL edge, after propagation and envelope-detector
// delays).
func (d *Device) InjectEnvelope(level bool) {
	d.MCU.In().Inject(level)
}

// QueueEdge queues one DL edge at the given level to reach the
// comparator pin at absolute time at (a time already past fires now).
// The tag's edges share one engine cursor, so a beacon's edges cost one
// heap entry and no allocation, and each fires exactly where its own
// scheduled event would have.
func (d *Device) QueueEdge(at sim.Time, level bool) {
	fn := d.fallFn
	if level {
		fn = d.riseFn
	}
	d.edges.Push(at, fn)
}

// onEdge is the DL demodulation ISR pair of Fig. 6(a): positive edge
// resets the timer, negative edge reads it and classifies the PIE
// symbol by pulse interval.
func (d *Device) onEdge(rising bool, now sim.Time) {
	if !d.powered {
		return
	}
	if rising {
		if d.MCU.Mode() == mcu.ModeIdle {
			d.MCU.SetMode(mcu.ModeRX)
		}
		d.MCU.Timer().ResetCounter()
		return
	}
	ticks := d.MCU.Timer().ReadCounter()
	chips := float64(ticks) / d.ticksPerChip
	bit, ok := phy.PIEDecodeInterval(chips)
	if !ok {
		// Unclassifiable pulse: abort any frame in progress.
		d.resetDemod()
		d.MCU.SetMode(mcu.ModeIdle)
		return
	}
	d.onBit(bit, now)
}

// resetDemod drops any partial preamble or frame.
func (d *Device) resetDemod() {
	d.inFrame = false
	d.dlShift, d.dlBits = 0, 0
}

// onBit shifts one bit into the demodulator: outside a frame it
// matches the last six bits against the preamble, inside it collects
// the command nibble.
//
//alloc:hot runs once per received beacon bit on every tag
func (d *Device) onBit(b byte, now sim.Time) {
	d.dlShift = d.dlShift<<1 | uint16(b)
	d.dlBits++
	if !d.inFrame {
		if d.dlBits >= phy.DLPreambleBits && d.dlShift&(1<<phy.DLPreambleBits-1) == phy.DLPreamble {
			d.inFrame = true
			d.dlBits = 0
		}
		return
	}
	if d.dlBits < phy.CMDBits {
		return
	}
	cmd := phy.Command(d.dlShift & (1<<phy.CMDBits - 1))
	d.resetDemod()
	d.MCU.WakeFor(mcu.NetISRCycles) // the network software interrupt
	d.handleBeacon(cmd, now)
}

// handleBeacon runs the network state machine on a complete beacon.
func (d *Device) handleBeacon(cmd phy.Command, now sim.Time) {
	d.beaconsSeen++
	d.armBeaconTimeout()
	d.MCU.SetMode(mcu.ModeIdle)
	if d.OnBeaconDecoded != nil {
		d.OnBeaconDecoded(cmd, now)
	}
	fb := mac.Feedback{
		ACK:   cmd.Has(phy.CmdACK),
		Empty: cmd.Has(phy.CmdEMPTY),
		Reset: cmd.Has(phy.CmdRESET),
	}
	if d.Proto.OnBeacon(fb) {
		d.engine.After(d.Cfg.ReplyDelay, "tag-ul", d.ulFn)
	}
}

// startTransmission samples the sensor, frames the packet and begins
// FM0 modulation via timer interrupts (Fig. 6b).
//
//alloc:hot runs once per uplink burst; the chip buffer is reused
func (d *Device) startTransmission() {
	if !d.powered || d.txBusy {
		return
	}
	pkt := phy.ULPacket{TID: d.Cfg.TID, Payload: d.samplePayload()}
	frame, err := pkt.Marshal()
	if err != nil {
		return // unrepresentable payload: firmware drops the sample
	}
	d.txChips = phy.AppendFM0(d.txChips[:0], uint64(frame), phy.ULFrameBits, 0)
	d.txIdx = 0
	d.txBusy = true
	d.MCU.SetMode(mcu.ModeTX)

	rate := d.MCU.ClockHz() / float64(d.Cfg.ULDivider)
	if d.OnTransmit != nil {
		d.OnTransmit(Transmission{
			TID:      d.Cfg.TID,
			Start:    d.engine.Now(),
			ChipRate: rate,
			Chips:    d.txChips,
			Packet:   pkt,
		})
	}
	d.MCU.Timer().StartPeriodic(d.Cfg.ULDivider, mcu.TXTimerISRCycles, d.chipFn)
}

// onTXChip is the TX timer ISR: it drives the next chip onto the PZT,
// and after the last one ends the burst.
func (d *Device) onTXChip(sim.Time) {
	if d.txIdx >= len(d.txChips) {
		d.MCU.Timer().StopPeriodic()
		d.MCU.Out().Set(false)
		d.PZT.SetState(pzt.Absorptive)
		d.txBusy = false
		d.MCU.SetMode(mcu.ModeIdle)
		return
	}
	on := d.txChips[d.txIdx]&1 == 1
	d.MCU.Out().Set(on)
	if on {
		d.PZT.SetState(pzt.Reflective)
	} else {
		d.PZT.SetState(pzt.Absorptive)
	}
	d.txIdx++
}

// samplePayload performs one ADC conversion of the strain chain (if
// fitted), drawing the 1 mW burst from the supercap; tags sample at
// most once per slot for exactly this reason (Sec. 6.5).
func (d *Device) samplePayload() uint16 {
	if d.Sensor == nil {
		return uint16(d.Proto.Counter()) & 0x0FFF // heartbeat payload
	}
	v, err := d.Sensor.VoltageAt(d.displacementM)
	if err != nil {
		return 0
	}
	adc := mcu.NewADC()
	d.Harvester.Cap.Withdraw(adc.ConversionWatts, adc.ConversionSeconds)
	return adc.Convert(v) & 0x0FFF
}
