package reader

import (
	"slices"
	"testing"

	"repro/internal/mac"
	"repro/internal/phy"
	"repro/internal/sim"
)

func newTestReader(t *testing.T, seed uint64) (*sim.Engine, *Device) {
	t.Helper()
	e := sim.NewEngine()
	periods := map[int]mac.Period{1: 4, 2: 4, 3: 8}
	d, err := New(e, DefaultConfig(), periods, sim.NewRand(seed))
	if err != nil {
		t.Fatal(err)
	}
	return e, d
}

func TestNewValidation(t *testing.T) {
	e := sim.NewEngine()
	if _, err := New(e, DefaultConfig(), map[int]mac.Period{1: 3}, sim.NewRand(1)); err == nil {
		t.Error("invalid period accepted")
	}
	cfg := DefaultConfig()
	cfg.SlotDuration = 0
	if _, err := New(e, cfg, map[int]mac.Period{1: 4}, sim.NewRand(1)); err == nil {
		t.Error("zero slot duration accepted")
	}
}

func TestFirstBeaconCarriesReset(t *testing.T) {
	e, d := newTestReader(t, 1)
	var first *BeaconTx
	d.Broadcast = func(bx BeaconTx) {
		if first == nil {
			b := bx
			first = &b
		}
	}
	d.Start()
	e.RunUntil(100 * sim.Millisecond)
	if first == nil {
		t.Fatal("no beacon broadcast")
	}
	if !first.Cmd.Has(phy.CmdRESET) {
		t.Errorf("first beacon cmd = %v, want RESET", first.Cmd)
	}
}

func TestBeaconEdgesDecodeAsPIE(t *testing.T) {
	e, d := newTestReader(t, 2)
	d.Cfg.SymbolJitter = 0 // exact edges for this check
	var bx BeaconTx
	got := false
	d.Broadcast = func(b BeaconTx) {
		if !got {
			bx, got = b, true
		}
	}
	d.Start()
	e.RunUntil(sim.Second / 2)
	if !got {
		t.Fatal("no beacon")
	}
	if len(bx.Edges)%2 != 0 {
		t.Fatalf("odd edge count %d", len(bx.Edges))
	}
	// Reconstruct high-pulse durations in chips and decode.
	chip := 1 / d.Cfg.DLRate
	var highs []float64
	for i := 0; i < len(bx.Edges); i += 2 {
		if !bx.Edges[i].Rising || bx.Edges[i+1].Rising {
			t.Fatalf("edge polarity broken at %d", i)
		}
		highs = append(highs, (bx.Edges[i+1].At-bx.Edges[i].At).Seconds()/chip)
	}
	if len(highs) != phy.DLFrameBits {
		t.Fatalf("%d pulses, want %d", len(highs), phy.DLFrameBits)
	}
	frame, err := phy.PIEDecodeIntervals(highs)
	if err != nil {
		t.Fatal(err)
	}
	beacon, err := phy.UnmarshalDL(uint16(frame))
	if err != nil {
		t.Fatal(err)
	}
	if beacon.Cmd != bx.Cmd {
		t.Errorf("decoded cmd %v, want %v", beacon.Cmd, bx.Cmd)
	}
	// Duration ~100 ms at 250 bps.
	if dur := bx.End - bx.Start; dur < 80*sim.Millisecond || dur > 130*sim.Millisecond {
		t.Errorf("beacon duration %v", dur)
	}
}

func TestJitterBoundsRespected(t *testing.T) {
	e, d := newTestReader(t, 3)
	var all []BeaconTx
	d.Broadcast = func(b BeaconTx) {
		b.Edges = slices.Clone(b.Edges) // borrowed: the next beacon reuses the buffer
		all = append(all, b)
	}
	d.Start()
	e.RunUntil(10 * sim.Second)
	if len(all) < 5 {
		t.Fatalf("%d beacons", len(all))
	}
	chip := sim.FromSeconds(1 / d.Cfg.DLRate)
	for _, bx := range all {
		for i := 0; i < len(bx.Edges); i += 2 {
			high := bx.Edges[i+1].At - bx.Edges[i].At
			// One or two chips, +/- 2*jitter.
			lo := chip - 2*d.Cfg.SymbolJitter
			hi := 2*chip + 2*d.Cfg.SymbolJitter
			if high < lo || high > hi {
				t.Fatalf("high pulse %v outside [%v, %v]", high, lo, hi)
			}
		}
	}
}

func TestSlotLoopAndDecode(t *testing.T) {
	e, d := newTestReader(t, 4)
	beacons := 0
	d.Broadcast = func(bx BeaconTx) {
		beacons++
		// Tag 1 answers every beacon, cleanly.
		d.OnTransmission(ULEvent{
			TID: 1, Start: bx.End + 20*sim.Millisecond,
			End: bx.End + 190*sim.Millisecond, Amplitude: 0.05, DecodeProb: 1.0,
			Payload: 0xABC,
		})
	}
	d.Start()
	e.RunUntil(10 * sim.Second)
	if beacons < 9 {
		t.Errorf("beacons = %d over 10 s of 1 s slots", beacons)
	}
	if d.SlotsRun < 9 {
		t.Errorf("slots = %d", d.SlotsRun)
	}
	if d.Decoded < 9 {
		t.Errorf("decoded = %d", d.Decoded)
	}
	if got := d.Payloads(1); len(got) == 0 || got[len(got)-1] != 0xABC {
		t.Errorf("payloads = %v", got)
	}
	if len(d.PingPongs()) == 0 {
		t.Fatal("no ping-pong samples")
	}
	pp := d.PingPongs()[0]
	if pp.Stage2 < 200*sim.Millisecond || pp.Stage2 > 300*sim.Millisecond {
		t.Errorf("stage2 = %v", pp.Stage2)
	}
}

func TestCollisionHandling(t *testing.T) {
	e, d := newTestReader(t, 5)
	d.Cfg.CaptureProb = 1.0 // always capture the strongest
	d.Broadcast = func(bx BeaconTx) {
		d.OnTransmission(ULEvent{TID: 1, Amplitude: 0.05, DecodeProb: 1})
		d.OnTransmission(ULEvent{TID: 2, Amplitude: 0.01, DecodeProb: 1})
	}
	d.Start()
	e.RunUntil(5 * sim.Second)
	// Collisions observed, never ACK-settled.
	if d.Window.AverageCollisionRatio() < 0.9 {
		t.Errorf("collision ratio %.2f with two colliding tags", d.Window.AverageCollisionRatio())
	}
	if d.Proto.SettledCount() != 0 {
		t.Errorf("settled %d tags out of a permanent collision", d.Proto.SettledCount())
	}
	// Capture decodes the stronger tag's packets.
	if len(d.Payloads(1)) == 0 {
		t.Error("capture effect never decoded the strong tag")
	}
	if len(d.Payloads(2)) != 0 {
		t.Error("weak tag decoded during capture")
	}
}

// TestStartIdempotent: a second Start while running schedules no
// second slot loop, so the device runs exactly the slots of a device
// started once.
func TestStartIdempotent(t *testing.T) {
	run := func(starts int) int {
		e, d := newTestReader(t, 6)
		d.Broadcast = func(BeaconTx) {}
		d.Start()
		e.RunUntil(3 * sim.Second)
		for i := 1; i < starts; i++ {
			d.Start()
		}
		e.RunUntil(10 * sim.Second)
		return d.SlotsRun
	}
	once, twice := run(1), run(2)
	if once == 0 {
		t.Fatal("slot loop never ran")
	}
	if twice != once {
		t.Errorf("second Start changed SlotsRun: %d, want %d", twice, once)
	}
}

func TestFeedbackToCommandMapping(t *testing.T) {
	cmd := feedbackToCommand(mac.Feedback{ACK: true, Empty: true, Reset: true})
	if !cmd.Has(phy.CmdACK) || !cmd.Has(phy.CmdEMPTY) || !cmd.Has(phy.CmdRESET) {
		t.Errorf("cmd = %v", cmd)
	}
	if feedbackToCommand(mac.Feedback{}) != 0 {
		t.Error("empty feedback should map to NACK (zero)")
	}
}
