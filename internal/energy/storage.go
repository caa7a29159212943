package energy

import (
	"math"

	"repro/internal/obs"
)

// Supercap is the tag's energy store: a 1 mF tantalum capacitor (KEMET
// T491X108K006AT) chosen for its very low leakage (< 0.01*C*V uA at
// rated voltage). Voltage is the single state variable. The harvester
// integrates charge, leakage (LeakCurrent) and load into it with
// SetVolts, and a discrete load such as an ADC conversion or an
// injected drain takes its energy out with Withdraw.
type Supercap struct {
	// Farads is the capacitance.
	Farads float64
	// RatedVolts is the maximum working voltage.
	RatedVolts float64
	// RatedLeakAmps is the DC leakage current at rated voltage; the
	// model scales it linearly with voltage.
	RatedLeakAmps float64

	// Trace, when set, receives an obs.KindBrownout event whenever a
	// withdrawal exhausts the capacitor. TraceTID identifies the owning
	// tag and Now supplies the simulated time in seconds (both optional).
	Trace    *obs.Tracer
	TraceTID int
	Now      func() float64

	volts float64
}

// NewSupercap returns the paper's 1 mF / 6 V tantalum capacitor.
func NewSupercap() *Supercap {
	return &Supercap{
		Farads:        1e-3,
		RatedVolts:    6.0,
		RatedLeakAmps: 0.25e-6,
	}
}

// Volts returns the current capacitor voltage.
func (s *Supercap) Volts() float64 { return s.volts }

// SetVolts forces the capacitor voltage (clamped to [0, rated]).
func (s *Supercap) SetVolts(volts float64) {
	if volts < 0 {
		volts = 0
	}
	if volts > s.RatedVolts {
		volts = s.RatedVolts
	}
	s.volts = volts
}

// EnergyJoules returns the stored energy 1/2 C V^2.
func (s *Supercap) EnergyJoules() float64 {
	return 0.5 * s.Farads * s.volts * s.volts
}

// Withdraw removes the energy consumed by a load drawing power p (W)
// for dtSeconds (s). It reports whether the capacitor could supply it; on
// failure (the demand exceeds the stored energy) the voltage is left at
// zero. A withdrawal of exactly the stored energy succeeds and leaves
// the capacitor at 0 V — the boundary is not a brownout.
func (s *Supercap) Withdraw(watts, dtSeconds float64) bool {
	if watts <= 0 || dtSeconds <= 0 {
		return true
	}
	e := s.EnergyJoules() - watts*dtSeconds
	if e < 0 {
		s.volts = 0
		if s.Trace.Enabled() {
			s.Trace.Emit(obs.Event{Kind: obs.KindBrownout, T: s.now(), TID: s.TraceTID, Value: watts * dtSeconds})
		}
		return false
	}
	s.volts = math.Sqrt(2 * e / s.Farads)
	return true
}

// now resolves the trace timestamp (0 when no clock is wired).
func (s *Supercap) now() float64 {
	if s.Now == nil {
		return 0
	}
	return s.Now()
}

// LeakCurrent returns the leakage current at the present voltage.
func (s *Supercap) LeakCurrent() float64 {
	if s.RatedVolts <= 0 {
		return 0
	}
	return s.RatedLeakAmps * s.volts / s.RatedVolts
}
