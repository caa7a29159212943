package mcu

import (
	"math"
	"testing"

	"repro/internal/phy"
	"repro/internal/sim"
)

func newTestMCU(seed uint64) (*sim.Engine, *MCU) {
	e := sim.NewEngine()
	return e, New(e, DefaultConfig(), sim.NewRand(seed))
}

func TestModeString(t *testing.T) {
	if ModeIdle.String() != "IDLE" || ModeRX.String() != "RX" || ModeTX.String() != "TX" {
		t.Error("mode names wrong")
	}
	if Mode(7).String() != "Mode(7)" {
		t.Error("unknown mode formatting")
	}
}

func TestClockSkewIndividualized(t *testing.T) {
	e := sim.NewEngine()
	a := New(e, DefaultConfig(), sim.NewRand(1))
	b := New(e, DefaultConfig(), sim.NewRand(2))
	if a.ClockHz() == b.ClockHz() {
		t.Error("two parts should have different clock errors")
	}
	// Error within a few sigma of the 1% tolerance.
	for _, m := range []*MCU{a, b} {
		if math.Abs(m.ClockHz()-12000)/12000 > 0.05 {
			t.Errorf("clock %v too far off nominal", m.ClockHz())
		}
	}
	// No RNG -> exact nominal clock.
	c := New(e, DefaultConfig(), nil)
	if c.ClockHz() != 12000 {
		t.Error("nil RNG should give nominal clock")
	}
}

func TestTickDuration(t *testing.T) {
	e := sim.NewEngine()
	m := New(e, DefaultConfig(), nil)
	// 12 ticks of a 12 kHz clock = 1 ms.
	if d := m.TickDuration(12); d != sim.Millisecond {
		t.Errorf("12 ticks = %v, want 1 ms", d)
	}
}

func TestTimerPeriodicInterrupts(t *testing.T) {
	e, m := newTestMCU(3)
	count := 0
	m.Timer().StartPeriodic(32, TXTimerISRCycles, func(sim.Time) { count++ })
	e.RunUntil(sim.Second)
	// Divider 32 at ~12 kHz -> 375 interrupts/s.
	if count < 360 || count > 390 {
		t.Errorf("interrupts in 1 s = %d, want ~375", count)
	}
	m.Timer().StopPeriodic()
	before := count
	e.RunUntil(2 * sim.Second)
	if count != before {
		t.Error("stopped timer kept firing")
	}
}

func TestTimerRestartReplacesSchedule(t *testing.T) {
	e, m := newTestMCU(4)
	var a, b int
	m.Timer().StartPeriodic(12, 10, func(sim.Time) { a++ })
	m.Timer().StartPeriodic(24, 10, func(sim.Time) { b++ })
	e.RunUntil(sim.Second)
	if a != 0 {
		t.Errorf("first schedule fired %d times after replacement", a)
	}
	if b < 480 || b > 520 {
		t.Errorf("second schedule fired %d, want ~500", b)
	}
}

func TestTimerCounterQuantization(t *testing.T) {
	e, m := newTestMCU(5)
	m.Timer().ResetCounter()
	e.After(10*sim.Millisecond, "wait", func(sim.Time) {})
	e.Run()
	ticks := m.Timer().ReadCounter()
	// 10 ms at ~12 kHz is ~120 ticks; the count must be an integer and
	// close to the true value.
	if ticks < 115 || ticks > 125 {
		t.Errorf("counter = %d, want ~120", ticks)
	}
}

func TestInputPinEdges(t *testing.T) {
	_, m := newTestMCU(6)
	var edges []bool
	m.In().OnEdge(EdgeISRCycles, func(rising bool, now sim.Time) {
		edges = append(edges, rising)
	})
	m.In().Inject(true)
	m.In().Inject(true) // no change, no edge
	m.In().Inject(false)
	m.In().Inject(true)
	if len(edges) != 3 {
		t.Fatalf("edges = %v, want 3", edges)
	}
	if !edges[0] || edges[1] || !edges[2] {
		t.Errorf("edge polarity wrong: %v", edges)
	}
	m.In().ClearHandler()
	m.In().Inject(false)
	if len(edges) != 3 {
		t.Error("cleared handler still fired")
	}
}

// TestOutputPinTogglesAccounted checks that each level change, and
// only a change, draws one gate charge C*V from the rail.
func TestOutputPinTogglesAccounted(t *testing.T) {
	_, m := newTestMCU(7)
	q0 := m.Meter().TotalCharge()
	m.Out().Set(true)
	m.Out().Set(true) // no transition
	m.Out().Set(false)
	gate := m.Cfg.SwitchCapFarads * m.Cfg.SupplyVolts
	if got := m.Meter().TotalCharge() - q0; math.Abs(got-2*gate) > 1e-15 {
		t.Errorf("gate charge = %v, want 2 toggles x %v", got, gate)
	}
}

func TestADCQuantization(t *testing.T) {
	a := NewADC()
	if a.Convert(0) != 0 {
		t.Error("zero input")
	}
	if a.Convert(-1) != 0 {
		t.Error("negative input must clamp")
	}
	if a.Convert(2.0) != 1023 {
		t.Error("over-range must clamp to full scale")
	}
	mid := a.Convert(0.9)
	if mid < 510 || mid > 514 {
		t.Errorf("midscale = %d, want ~512", mid)
	}
	// A conversion burst draws ConversionWatts for ConversionSeconds
	// from the supercap: ~1 mW for 2 ms = 2 uJ, expensive relative to
	// the 51 uW TX budget, which is why the firmware samples once per
	// slot (Sec. 6.5).
	if e := a.ConversionWatts * a.ConversionSeconds; e < 1e-6 {
		t.Errorf("conversion energy %v J implausibly low", e)
	}
}

// TestTable2RXCurrent drives the MCU with a realistic beacon edge
// pattern (PIE at 250 bps) and checks the emergent average RX current
// against the paper's 12.4 uA total / 24.8 uW.
func TestTable2RXCurrent(t *testing.T) {
	e, m := newTestMCU(8)
	m.SetMode(ModeRX)
	m.In().OnEdge(EdgeISRCycles, func(rising bool, now sim.Time) {})

	// A beacon is ~10 bits = ~25 chips of 4 ms: with continuous beacon
	// traffic there are 2 edges per PIE bit -> ~200 edges/s.
	frame := (phy.Beacon{Cmd: phy.CmdACK}).Marshal()
	chips := phy.AppendPIE(nil, uint64(frame), phy.DLFrameBits)
	chipDur := sim.Time(4 * sim.Millisecond)
	var inject func(i int) func(sim.Time)
	inject = func(i int) func(sim.Time) {
		return func(sim.Time) {
			m.In().Inject(chips[i%len(chips)]&1 == 1)
			e.After(chipDur, "chip", inject(i+1))
		}
	}
	e.After(0, "start", inject(0))
	e.RunUntil(20 * sim.Second)

	meter := m.Meter()
	gotUA := meter.AverageAmps(ModeRX) * 1e6
	if math.Abs(gotUA-12.4) > 2.5 {
		t.Errorf("RX current = %.1f uA, want 12.4 +/- 2.5", gotUA)
	}
	gotUW := meter.AveragePowerWatts(ModeRX, 2.0) * 1e6
	if math.Abs(gotUW-24.8) > 5 {
		t.Errorf("RX power = %.1f uW, want ~24.8", gotUW)
	}
}

// TestTable2TXCurrent drives the TX timer with FM0 chips at 375 bps and
// checks the emergent average against 25.5 uA / 51.0 uW.
func TestTable2TXCurrent(t *testing.T) {
	e, m := newTestMCU(9)
	m.SetMode(ModeTX)
	// A long random-ish FM0 chip sequence.
	frame, err := phy.ULPacket{TID: 5, Payload: 0x9A5}.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	chips := phy.AppendFM0(nil, uint64(frame), phy.ULFrameBits, 0)
	i := 0
	m.Timer().StartPeriodic(32, TXTimerISRCycles, func(sim.Time) {
		m.Out().Set(chips[i%len(chips)]&1 == 1)
		i++
	})
	e.RunUntil(20 * sim.Second)
	meter := m.Meter()
	gotUA := meter.AverageAmps(ModeTX) * 1e6
	if math.Abs(gotUA-25.5) > 5 {
		t.Errorf("TX current = %.1f uA, want 25.5 +/- 5", gotUA)
	}
	gotUW := meter.AveragePowerWatts(ModeTX, 2.0) * 1e6
	if math.Abs(gotUW-51.0) > 10 {
		t.Errorf("TX power = %.1f uW, want ~51.0", gotUW)
	}
}

// TestTable2IdleCurrent checks the sleep floor: 3.8 uA / 7.6 uW.
func TestTable2IdleCurrent(t *testing.T) {
	e, m := newTestMCU(10)
	m.SetMode(ModeIdle)
	e.After(30*sim.Second, "wake", func(sim.Time) {})
	e.Run()
	meter := m.Meter()
	gotUA := meter.AverageAmps(ModeIdle) * 1e6
	if math.Abs(gotUA-3.8) > 0.5 {
		t.Errorf("IDLE current = %.2f uA, want 3.8", gotUA)
	}
	gotUW := meter.AveragePowerWatts(ModeIdle, 2.0) * 1e6
	if math.Abs(gotUW-7.6) > 1.0 {
		t.Errorf("IDLE power = %.2f uW, want 7.6", gotUW)
	}
}

// TestInterruptDrivenSavings reproduces the Sec. 4.3 claim: the
// interrupt-driven architecture cuts CPU current by over 80% versus
// keeping the CPU continuously active.
func TestInterruptDrivenSavings(t *testing.T) {
	cfg := DefaultConfig()
	// Continuous active mode: the CPU never sleeps.
	continuous := cfg.ActiveAmps // 45 uA

	// Interrupt-driven RX duty: ~200 ISRs/s * 650 cycles at 1 MHz.
	e, m := newTestMCU(11)
	m.SetMode(ModeRX)
	m.In().OnEdge(EdgeISRCycles, func(bool, sim.Time) {})
	toggle := false
	var step func(sim.Time)
	step = func(sim.Time) {
		toggle = !toggle
		m.In().Inject(toggle)
		e.After(5*sim.Millisecond, "edge", step) // 200 edges/s
	}
	e.After(0, "start", step)
	e.RunUntil(10 * sim.Second)
	meter := m.Meter()
	// Subtract the analog front end: compare CPU draw only.
	cpu := meter.AverageAmps(ModeRX) - cfg.PeripheralRXAmps
	saving := 1 - cpu/continuous
	if saving < 0.80 {
		t.Errorf("interrupt-driven saving = %.0f%%, want > 80%%", saving*100)
	}
}

func TestMeterAggregates(t *testing.T) {
	var p Meter
	p.add(ModeRX, 1e-6)
	p.addTime(ModeRX, 2)
	p.add(ModeTX, 2e-6)
	p.addTime(ModeTX, 1)
	if got := p.AverageAmps(ModeRX); math.Abs(got-0.5e-6) > 1e-12 {
		t.Errorf("RX avg = %v", got)
	}
	if p.AverageAmps(ModeIdle) != 0 {
		t.Error("unvisited mode should average 0")
	}
	if math.Abs(p.TotalCharge()-3e-6) > 1e-12 {
		t.Error("total charge wrong")
	}
}
