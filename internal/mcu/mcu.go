// Package mcu simulates the tag's microcontroller — an MSP430G2553
// operated the way the paper operates it: 1.8-2.3 V supply straight
// from the supercapacitor, a 12 kHz low-frequency timer clock, and an
// interrupt-driven software architecture in which the CPU sleeps in
// LPM3 and wakes only for GPIO edges (DL demodulation), timer ticks
// (UL modulation) and software interrupts (network events).
//
// Power is accounted the way Table 2 measures it: the CPU draws its
// active current only for the cycles an ISR actually runs and the LPM3
// floor otherwise, so the RX/TX/IDLE averages *emerge* from interrupt
// activity rather than being looked up.
package mcu

import (
	"fmt"

	"repro/internal/sim"
)

// Mode is the network-level operating mode used for the Table 2 power
// breakdown.
type Mode int

const (
	// ModeIdle: deep sleep between slots, no traffic expected.
	ModeIdle Mode = iota
	// ModeRX: receiving a beacon (edge interrupts active).
	ModeRX
	// ModeTX: backscattering a packet (timer interrupts active).
	ModeTX
)

func (m Mode) String() string {
	switch m {
	case ModeIdle:
		return "IDLE"
	case ModeRX:
		return "RX"
	case ModeTX:
		return "TX"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config holds the electrical parameters of the MCU model. Defaults
// reproduce the MSP430G2553 at 2.0 V as measured in Table 2.
type Config struct {
	// SupplyVolts is the nominal MCU rail (cutoff output).
	SupplyVolts float64
	// ClockHz is the low-frequency timer clock (12 kHz).
	ClockHz float64
	// CPUHz is the CPU core clock while awake.
	CPUHz float64
	// ActiveAmps is the CPU current while executing.
	ActiveAmps float64
	// SleepAmps is the LPM3 floor.
	SleepAmps float64
	// ClockToleranceFrac is the 1-sigma relative frequency error of the
	// supercap-powered (non-LDO) clock; it limits PIE timing accuracy
	// at high DL rates (Sec. 6.3).
	ClockToleranceFrac float64
	// PeripheralIdleAmps / PeripheralRXAmps are the analog front-end
	// draws (envelope detector, comparator, cutoff monitor).
	PeripheralIdleAmps float64
	PeripheralRXAmps   float64
	// SwitchCapFarads is the effective capacitance of the PZT MOSFET
	// switch network; toggling it dominates TX power (Sec. 6.2).
	SwitchCapFarads float64
}

// DefaultConfig returns the paper's operating point.
func DefaultConfig() Config {
	return Config{
		SupplyVolts:        2.0,
		ClockHz:            12_000,
		CPUHz:              1_000_000,
		ActiveAmps:         45e-6,
		SleepAmps:          0.6e-6,
		ClockToleranceFrac: 0.01,
		PeripheralIdleAmps: 3.2e-6,
		PeripheralRXAmps:   6.0e-6,
		SwitchCapFarads:    31e-9,
	}
}

// ISR cycle budgets used by the tag firmware. With the 1 MHz core
// clock these durations reproduce the Table 2 duty cycles: at 250 bps
// PIE (about 200 edges/s) the RX average lands at 6.4 uA; at 375 bps
// FM0 (375 timer ticks/s) the TX average lands at 4.7 uA.
const (
	// EdgeISRCycles is the cost of one DL edge interrupt: timer
	// reset/read, PIE classification and preamble matching.
	EdgeISRCycles = 650
	// TXTimerISRCycles is the cost of one UL timer interrupt: fetch the
	// next chip and drive the PZT switch pin.
	TXTimerISRCycles = 250
	// NetISRCycles is the cost of the software interrupt that runs the
	// network state machine after a complete beacon decodes.
	NetISRCycles = 400
)

// MCU is one simulated microcontroller bound to a simulation engine.
type MCU struct {
	Cfg    Config
	engine *sim.Engine
	rng    *sim.Rand

	mode     Mode
	lastAt   sim.Time
	clockPPM float64 // per-unit frequency error of this part

	meter  Meter
	timer  *Timer
	pinIn  *InputPin
	pinOut *OutputPin
}

// New creates an MCU on the engine. rng individualizes the clock error
// of this part (the non-LDO supply makes each tag's clock slightly
// different).
func New(engine *sim.Engine, cfg Config, rng *sim.Rand) *MCU {
	m := &MCU{
		Cfg:    cfg,
		engine: engine,
		rng:    rng,
		lastAt: engine.Now(),
	}
	if rng != nil && cfg.ClockToleranceFrac > 0 {
		m.clockPPM = rng.NormFloat64() * cfg.ClockToleranceFrac
	}
	m.timer = newTimer(m)
	m.pinIn = &InputPin{mcu: m}
	m.pinOut = &OutputPin{mcu: m}
	return m
}

// Timer returns the MCU's timer peripheral.
func (m *MCU) Timer() *Timer { return m.timer }

// In returns the demodulator input pin.
func (m *MCU) In() *InputPin { return m.pinIn }

// Out returns the PZT switch control pin.
func (m *MCU) Out() *OutputPin { return m.pinOut }

// ClockHz returns this part's actual clock frequency including its
// supply-dependent error.
func (m *MCU) ClockHz() float64 { return m.Cfg.ClockHz * (1 + m.clockPPM) }

// TickDuration returns the duration of n clock ticks in simulation
// time, as experienced by this part's skewed clock.
func (m *MCU) TickDuration(n int) sim.Time {
	return sim.Time(float64(n) / m.ClockHz() * float64(sim.Second))
}

// Mode returns the current accounting mode.
func (m *MCU) Mode() Mode { return m.mode }

// SetMode checkpoints power accounting and switches mode.
func (m *MCU) SetMode(mode Mode) {
	m.checkpoint()
	m.mode = mode
}

// checkpoint integrates the sleep-floor and peripheral currents since
// the last accounting event into the meter.
func (m *MCU) checkpoint() {
	now := m.engine.Now()
	dt := (now - m.lastAt).Seconds()
	if dt > 0 {
		floor := m.Cfg.SleepAmps + m.peripheralAmps()
		m.meter.add(m.mode, floor*dt)
		m.meter.addTime(m.mode, dt)
	}
	m.lastAt = now
}

func (m *MCU) peripheralAmps() float64 {
	switch m.mode {
	case ModeRX:
		return m.Cfg.PeripheralRXAmps
	case ModeTX:
		// The front end stays powered during TX too (always-on design).
		return m.Cfg.PeripheralIdleAmps
	default:
		return m.Cfg.PeripheralIdleAmps
	}
}

// WakeFor accounts an ISR of the given CPU cycle count: the CPU's
// active-vs-sleep current delta for the execution window.
func (m *MCU) WakeFor(cycles int) {
	m.checkpoint()
	if cycles <= 0 {
		return
	}
	dur := float64(cycles) / m.Cfg.CPUHz
	extra := (m.Cfg.ActiveAmps - m.Cfg.SleepAmps) * dur
	m.meter.add(m.mode, extra)
}

// noteToggle accounts one MOSFET gate transition: Q = C*V of gate
// charge drawn from the rail.
func (m *MCU) noteToggle() {
	m.meter.add(m.mode, m.Cfg.SwitchCapFarads*m.Cfg.SupplyVolts)
}

// Meter checkpoints and returns a copy of the power accounting.
func (m *MCU) Meter() Meter {
	m.checkpoint()
	return m.meter
}
