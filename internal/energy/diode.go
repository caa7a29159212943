// Package energy implements the tag's power subsystem (Sec. 3 and
// Appendix A of the paper): the multi-stage Schottky voltage multiplier
// that amplifies the tiny PZT output above the MCU's operating voltage,
// the supercapacitor energy store, the low-voltage cutoff circuit with
// hysteresis, and a charging integrator that ties them together. All
// the published circuit numbers are reproduced: 8 stages, CDBU0130L
// Schottky diodes, a 1 mF tantalum capacitor, HTH = 2.3 V and
// LTH = 1.95 V derived from the Appendix A resistor network.
package energy

import "math"

// Diode models a rectifier diode's forward voltage drop as a function
// of forward current, using the logarithmic Shockley form
// Vf(I) = SlopeVolts * ln(1 + I/SatAmps). The drop is what each multiplier stage
// loses, so low-drop Schottky diodes are essential at the sub-volt
// input levels harvested from the BiW.
type Diode struct {
	Name string
	// SlopeVolts is the slope factor n*VT (volts).
	SlopeVolts float64
	// SatAmps is the saturation current (amperes).
	SatAmps float64
}

// Schottky returns the CDBU0130L low-drop Schottky diode used by the
// paper: forward drop below 0.15 V at the pump's operating current and
// under 0.2 V up to 1 mA.
func Schottky() Diode {
	return Diode{Name: "CDBU0130L", SlopeVolts: 0.0375, SatAmps: 7.5e-6}
}

// ForwardDrop returns the forward voltage (V) at forward current amps (A).
// Non-positive currents return zero drop.
func (d Diode) ForwardDrop(amps float64) float64 {
	if amps <= 0 {
		return 0
	}
	return d.SlopeVolts * math.Log(1+amps/d.SatAmps)
}

// PumpOperatingCurrent is the internal peak pulse current of the charge
// pump at which the effective per-diode drop is evaluated.
const PumpOperatingCurrent = 400e-6 // 400 uA

// EffectiveDrop is the forward drop at the pump operating current — the
// Von of the paper's Vdd = 2N(Vp - Von) formula.
func (d Diode) EffectiveDrop() float64 { return d.ForwardDrop(PumpOperatingCurrent) }
