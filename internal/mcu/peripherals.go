package mcu

import (
	"repro/internal/sim"
)

// Timer is the MSP430-style timer peripheral clocked at the (skewed)
// 12 kHz low-frequency clock. It serves two roles, matching Fig. 6:
//
//   - UL modulation: periodic interrupts at a clock-divider interval
//     wake the CPU to set the PZT switch for the next chip;
//   - DL demodulation: a free-running counter that the edge ISRs reset
//     and read to measure PIE pulse intervals, with the quantization of
//     a real 12 kHz counter.
type Timer struct {
	mcu *MCU

	periodic   sim.Handle
	resetAt    sim.Time
	isrCycles  int
	intervalTk int
	callback   func(now sim.Time)
	// interrupt is t.onInterrupt, bound once so that arming the next
	// period allocates nothing.
	interrupt func(now sim.Time)
}

func newTimer(m *MCU) *Timer {
	t := &Timer{mcu: m, resetAt: m.engine.Now()}
	t.interrupt = t.onInterrupt
	return t
}

// StartPeriodic arranges for fn to be called every divider clock ticks,
// charging isrCycles of CPU time per invocation. Any previous periodic
// schedule is cancelled.
func (t *Timer) StartPeriodic(divider, isrCycles int, fn func(now sim.Time)) {
	t.StopPeriodic()
	if divider < 1 {
		divider = 1
	}
	t.intervalTk = divider
	t.isrCycles = isrCycles
	t.callback = fn
	t.schedule()
}

func (t *Timer) schedule() {
	t.periodic = t.mcu.engine.After(t.mcu.TickDuration(t.intervalTk), "mcu-timer", t.interrupt)
}

func (t *Timer) onInterrupt(now sim.Time) {
	t.mcu.WakeFor(t.isrCycles)
	cb := t.callback
	if cb == nil {
		return
	}
	t.schedule()
	cb(now)
}

// StopPeriodic cancels the periodic interrupt.
func (t *Timer) StopPeriodic() {
	t.mcu.engine.Cancel(t.periodic)
	t.callback = nil
}

// ResetCounter zeroes the free-running counter (positive-edge ISR).
func (t *Timer) ResetCounter() { t.resetAt = t.mcu.engine.Now() }

// ReadCounter returns the elapsed ticks since the last reset, with the
// integer quantization of the real counter (negative-edge ISR).
func (t *Timer) ReadCounter() int {
	elapsed := (t.mcu.engine.Now() - t.resetAt).Seconds()
	return int(elapsed * t.mcu.ClockHz())
}

// InputPin is the demodulator GPIO: the comparator output wired to an
// edge-interrupt-capable pin. The channel simulation injects edges; the
// firmware registers a handler.
type InputPin struct {
	mcu     *MCU
	level   bool
	handler func(rising bool, now sim.Time)
	// ISRCycles is the CPU cost charged per edge interrupt.
	ISRCycles int
}

// OnEdge installs the edge ISR. cycles is the CPU cost per edge.
func (p *InputPin) OnEdge(cycles int, fn func(rising bool, now sim.Time)) {
	p.ISRCycles = cycles
	p.handler = fn
}

// ClearHandler disables the edge ISR.
func (p *InputPin) ClearHandler() { p.handler = nil }

// Level reports the level the pin was last driven to.
func (p *InputPin) Level() bool { return p.level }

// Inject drives the pin to the given level at the current simulation
// time; a level change fires the edge ISR (waking the CPU).
func (p *InputPin) Inject(level bool) {
	if level == p.level {
		return
	}
	p.level = level
	if p.handler != nil {
		p.mcu.WakeFor(p.ISRCycles)
		p.handler(level, p.mcu.engine.Now())
	}
}

// OutputPin drives the PZT MOSFET switch. Each level change costs the
// gate charge accounted by the MCU (the dominant TX power term).
type OutputPin struct {
	mcu   *MCU
	level bool
}

// Set drives the pin; transitions are accounted as gate toggles.
func (p *OutputPin) Set(level bool) {
	if level == p.level {
		return
	}
	p.level = level
	p.mcu.noteToggle()
}

// ADC is the 10-bit successive-approximation converter used by the
// strain module. A conversion is expensive (the pre-amplifier and ADC
// together draw about 1 mW, Sec. 6.5), so firmware samples at most once
// per slot.
type ADC struct {
	// VRefVolts is the full-scale reference.
	VRefVolts float64
	// Bits is the resolution (10 for the ADC10 block).
	Bits int
	// ConversionWatts is the burst power while converting.
	ConversionWatts float64
	// ConversionSeconds is the burst duration.
	ConversionSeconds float64
}

// NewADC returns the ADC10 at a 1.8 V reference.
func NewADC() *ADC {
	return &ADC{VRefVolts: 1.8, Bits: 10, ConversionWatts: 1e-3, ConversionSeconds: 2e-3}
}

// Convert quantizes an input voltage to a code, clamping to range.
func (a *ADC) Convert(volts float64) uint16 {
	max := (1 << a.Bits) - 1
	if volts <= 0 {
		return 0
	}
	if volts >= a.VRefVolts {
		return uint16(max)
	}
	return uint16(volts / a.VRefVolts * float64(max+1))
}
