package tag

import (
	"bytes"
	"testing"

	"repro/internal/mac"
	"repro/internal/phy"
	"repro/internal/sim"
)

func newTestTag(t *testing.T, seed uint64) (*sim.Engine, *Device) {
	t.Helper()
	e := sim.NewEngine()
	d, err := New(e, DefaultConfig(3, 4), sim.NewRand(seed))
	if err != nil {
		t.Fatal(err)
	}
	return e, d
}

// injectBeacon schedules the PIE edges of a beacon with command cmd at
// the tag, starting at time start, with the given chip duration.
func injectBeacon(e *sim.Engine, d *Device, cmd phy.Command, start sim.Time, chipDur sim.Time) sim.Time {
	frame := (phy.Beacon{Cmd: cmd}).Marshal()
	t := start
	for i := phy.DLFrameBits - 1; i >= 0; i-- {
		high := chipDur
		if frame>>i&1 == 1 {
			high = 2 * chipDur
		}
		rise, fall := t, t+high
		e.Schedule(rise, "edge-up", func(sim.Time) { d.InjectEnvelope(true) })
		e.Schedule(fall, "edge-dn", func(sim.Time) { d.InjectEnvelope(false) })
		t += high + chipDur
	}
	return t
}

func TestNewValidation(t *testing.T) {
	e := sim.NewEngine()
	cfg := DefaultConfig(16, 4)
	if _, err := New(e, cfg, sim.NewRand(1)); err == nil {
		t.Error("TID 16 accepted")
	}
	cfg = DefaultConfig(1, 4)
	cfg.ULDivider = 0
	if _, err := New(e, cfg, sim.NewRand(1)); err == nil {
		t.Error("zero divider accepted")
	}
	cfg = DefaultConfig(1, 3)
	if _, err := New(e, cfg, sim.NewRand(1)); err == nil {
		t.Error("invalid period accepted")
	}
}

func TestPreChargePowersUp(t *testing.T) {
	_, d := newTestTag(t, 1)
	if d.Powered() {
		t.Fatal("tag powered before charging")
	}
	d.PreCharge()
	if !d.Powered() {
		t.Fatal("PreCharge did not power the tag")
	}
	if d.Activations() != 1 {
		t.Errorf("activations = %d", d.Activations())
	}
}

func TestBeaconDemodulation(t *testing.T) {
	e, d := newTestTag(t, 2)
	d.PreCharge()
	var got []phy.Command
	d.OnBeaconDecoded = func(cmd phy.Command, at sim.Time) { got = append(got, cmd) }
	chip := sim.FromSeconds(1 / d.Cfg.DLRate)
	for i, cmd := range []phy.Command{phy.CmdACK, phy.CmdACK | phy.CmdEMPTY, 0, phy.CmdRESET} {
		injectBeacon(e, d, cmd, e.Now()+sim.Time(i)*400*sim.Millisecond+10*sim.Millisecond, chip)
	}
	e.RunUntil(2 * sim.Second)
	if len(got) != 4 {
		t.Fatalf("decoded %d beacons, want 4", len(got))
	}
	want := []phy.Command{phy.CmdACK, phy.CmdACK | phy.CmdEMPTY, 0, phy.CmdRESET}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("beacon %d: cmd %v, want %v", i, got[i], want[i])
		}
	}
	seen, lost := d.BeaconStats()
	if seen != 4 || lost != 0 {
		t.Errorf("stats seen=%d lost=%d", seen, lost)
	}
}

func TestMalformedPulseAborts(t *testing.T) {
	e, d := newTestTag(t, 3)
	d.PreCharge()
	decoded := 0
	d.OnBeaconDecoded = func(phy.Command, sim.Time) { decoded++ }
	// A 5-chip-long pulse is outside the PIE window.
	chip := sim.FromSeconds(1 / d.Cfg.DLRate)
	e.Schedule(10*sim.Millisecond, "up", func(sim.Time) { d.InjectEnvelope(true) })
	e.Schedule(10*sim.Millisecond+5*chip, "dn", func(sim.Time) { d.InjectEnvelope(false) })
	e.RunUntil(sim.Second)
	if decoded != 0 {
		t.Error("garbage decoded as beacon")
	}
	// A clean beacon right after still decodes (state was reset).
	injectBeacon(e, d, phy.CmdACK, e.Now()+10*sim.Millisecond, chip)
	e.RunUntil(2 * sim.Second)
	if decoded != 1 {
		t.Errorf("decoded=%d after recovery beacon", decoded)
	}
}

func TestBeaconTimeoutTriggersMigration(t *testing.T) {
	e, d := newTestTag(t, 4)
	d.PreCharge()
	// No beacons at all: the timeout should fire and count losses.
	e.RunUntil(10 * sim.Second)
	_, lost := d.BeaconStats()
	if lost < 5 {
		t.Errorf("beacon losses = %d over 10 quiet seconds", lost)
	}
	if d.Proto.State() != mac.Migrate {
		t.Error("tag should be migrating after beacon losses")
	}
}

func TestTransmissionProducesDecodableFrame(t *testing.T) {
	e, d := newTestTag(t, 5)
	d.PreCharge()
	// Clear the late-arrival gate so the tag contends immediately.
	var txs []Transmission
	d.OnTransmit = func(tx Transmission) {
		tx.Chips = bytes.Clone(tx.Chips) // borrowed from the tag
		txs = append(txs, tx)
	}
	chip := sim.FromSeconds(1 / d.Cfg.DLRate)
	// Send RESET (clears gate), then repeated beacons; the tag (period
	// 4) must transmit within its period.
	at := 10 * sim.Millisecond
	injectBeacon(e, d, phy.CmdRESET|phy.CmdEMPTY, at, chip)
	for i := 1; i <= 8; i++ {
		injectBeacon(e, d, phy.CmdEMPTY, at+sim.Time(i)*sim.Second, chip)
	}
	e.RunUntil(10 * sim.Second)
	if len(txs) < 2 {
		t.Fatalf("%d transmissions over 8 slots with period 4", len(txs))
	}
	tx := txs[0]
	if tx.TID != 3 {
		t.Errorf("TID = %d", tx.TID)
	}
	// The chip stream must FM0-decode back to a valid UL frame.
	frame, err := phy.FM0Decode(tx.Chips, 0)
	if err != nil {
		t.Fatalf("FM0 decode: %v", err)
	}
	pkt, err := phy.UnmarshalUL(uint32(frame))
	if err != nil {
		t.Fatalf("frame: %v", err)
	}
	if pkt != tx.Packet || pkt.TID != 3 {
		t.Errorf("frame carries %+v, transmission announced %+v", pkt, tx.Packet)
	}
	// Chip rate reflects the skewed clock near 375 bps.
	if tx.ChipRate < 360 || tx.ChipRate > 390 {
		t.Errorf("chip rate = %v", tx.ChipRate)
	}
	// Duration ~171 ms.
	if d := tx.Duration(); d < 150*sim.Millisecond || d > 200*sim.Millisecond {
		t.Errorf("duration = %v", d)
	}
}

func TestPowerDownOnStarvation(t *testing.T) {
	e, d := newTestTag(t, 6)
	d.PreCharge()
	d.SetHarvestInput(0) // carrier off: no harvesting
	// Keep the tag busy: the idle draw alone must eventually trip the
	// cutoff (1 mF from 2.35 V to 1.95 V at ~5 uW takes a while; speed
	// it up with the sensor burst).
	d.Harvester.Cap.SetVolts(1.96)
	for i := 0; i < 20; i++ {
		d.Harvester.Cap.Withdraw(1e-3, 0.1)
	}
	e.RunUntil(e.Now() + 2*sim.Second) // let an energy tick observe it
	if d.Powered() {
		t.Error("tag survived starvation below LTH")
	}
	// With the carrier back it re-activates and counts a second
	// activation.
	vp := 20.0/16 + 0.15
	d.SetHarvestInput(vp)
	e.RunUntil(e.Now() + 10*sim.Second)
	if !d.Powered() {
		t.Error("tag never re-activated")
	}
	if d.Activations() != 2 {
		t.Errorf("activations = %d, want 2", d.Activations())
	}
	// After a power cycle the tag is a late arrival again.
	if !d.Proto.Newcomer() {
		t.Error("rebooted tag should be EMPTY-gated")
	}
}

func TestSensorPayload(t *testing.T) {
	e := sim.NewEngine()
	cfg := DefaultConfig(2, 2)
	cfg.WithSensor = true
	d, err := New(e, cfg, sim.NewRand(7))
	if err != nil {
		t.Fatal(err)
	}
	d.PreCharge()
	d.SetHarvestInput(1.4)
	var payloads []uint16
	d.OnTransmit = func(tx Transmission) { payloads = append(payloads, tx.Packet.Payload) }
	chip := sim.FromSeconds(1 / d.Cfg.DLRate)

	d.SetDisplacement(-0.10)
	injectBeacon(e, d, phy.CmdRESET|phy.CmdEMPTY, 10*sim.Millisecond, chip)
	for i := 1; i <= 4; i++ {
		injectBeacon(e, d, phy.CmdACK|phy.CmdEMPTY, sim.Time(i)*sim.Second, chip)
	}
	e.RunUntil(5 * sim.Second)
	d.SetDisplacement(0.10)
	for i := 5; i <= 9; i++ {
		injectBeacon(e, d, phy.CmdACK|phy.CmdEMPTY, sim.Time(i)*sim.Second, chip)
	}
	e.RunUntil(10 * sim.Second)

	if len(payloads) < 4 {
		t.Fatalf("%d payloads", len(payloads))
	}
	first, last := payloads[0], payloads[len(payloads)-1]
	if first >= last {
		t.Errorf("payload did not rise with displacement: %d -> %d", first, last)
	}
}

func TestHeartbeatPayloadWithoutSensor(t *testing.T) {
	e, d := newTestTag(t, 8)
	d.PreCharge()
	var tx *Transmission
	d.OnTransmit = func(x Transmission) { tx = &x }
	chip := sim.FromSeconds(1 / d.Cfg.DLRate)
	injectBeacon(e, d, phy.CmdRESET|phy.CmdEMPTY, 10*sim.Millisecond, chip)
	for i := 1; i <= 4; i++ {
		injectBeacon(e, d, phy.CmdEMPTY, sim.Time(i)*sim.Second, chip)
	}
	e.RunUntil(6 * sim.Second)
	if tx == nil {
		t.Fatal("no transmission")
	}
	if tx.Packet.Payload > 0x0FFF {
		t.Errorf("payload %d exceeds 12 bits", tx.Packet.Payload)
	}
}
