// Package strain models the tag's sensing front end for the Sec. 6.5
// case study: a metal-foil strain gauge in a full Wheatstone bridge,
// a bridge amplifier running from the tag's 1.8 V rail, and the
// displacement-to-voltage chain used to monitor metal bending.
package strain

import (
	"fmt"
	"math"
)

// Gauge is a metal-foil strain gauge bonded to the monitored surface.
type Gauge struct {
	// NominalOhms is the unstrained resistance (120 or 350 typical).
	NominalOhms float64
	// GaugeFactor relates relative resistance change to strain:
	// dR/R = GF * epsilon.
	GaugeFactor float64
}

// DefaultGauge returns a 350-ohm foil gauge with GF 2.1.
func DefaultGauge() Gauge { return Gauge{NominalOhms: 350, GaugeFactor: 2.1} }

// Bridge is a full Wheatstone bridge: four gauges, two in tension and
// two in compression, which quadruples sensitivity and cancels
// temperature drift.
type Bridge struct {
	Gauge Gauge
	// ExcitationVolts is the bridge supply (the tag's 1.8 V rail; the
	// TI reference design the paper adapts runs at 3.3 V, lowered here
	// for the energy budget).
	ExcitationVolts float64
}

// DefaultBridge returns the paper's 1.8 V full bridge.
func DefaultBridge() Bridge {
	return Bridge{Gauge: DefaultGauge(), ExcitationVolts: 1.8}
}

// DifferentialVolts returns the bridge output for strain epsilon. For a
// full bridge: Vout = Vex * GF * epsilon.
func (b Bridge) DifferentialVolts(epsilon float64) float64 {
	return b.ExcitationVolts * b.Gauge.GaugeFactor * epsilon
}

// Amplifier is the instrumentation stage between bridge and ADC.
type Amplifier struct {
	// Gain is the voltage gain.
	Gain float64
	// OffsetVolts shifts the output midscale so the single-supply ADC
	// can see both strain polarities.
	OffsetVolts float64
	// RailVolts clamps the output.
	RailVolts float64
}

// DefaultAmplifier matches the single-supply reference design adapted
// to the 1.8 V rail; the gain is set so the Fig. 17 +/-10 cm sweep
// spans ~0.4-1.4 V without hitting the rails.
func DefaultAmplifier() Amplifier {
	return Amplifier{Gain: 70, OffsetVolts: 0.9, RailVolts: 1.8}
}

// Output returns the amplified, offset, rail-clamped voltage.
func (a Amplifier) Output(diffVolts float64) float64 {
	v := a.OffsetVolts + a.Gain*diffVolts
	if v < 0 {
		return 0
	}
	if v > a.RailVolts {
		return a.RailVolts
	}
	return v
}

// Beam converts end displacement of the Sec. 6.5 test plate into strain
// at the gauge location: a cantilever-like linear relation within the
// tested range, epsilon = k * displacement.
type Beam struct {
	// StrainPerMeter is the strain induced per meter of end
	// displacement at the gauge position.
	StrainPerMeter float64
	// MaxDisplacementM bounds the linear model's validity.
	MaxDisplacementM float64
}

// DefaultBeam is calibrated so the +/-10 cm sweep of Fig. 17 spans
// most of the amplifier's output range.
func DefaultBeam() Beam {
	return Beam{StrainPerMeter: 0.018, MaxDisplacementM: 0.12}
}

// StrainAt returns the strain for an end displacement (meters).
func (b Beam) StrainAt(displacementM float64) (float64, error) {
	if math.Abs(displacementM) > b.MaxDisplacementM {
		return 0, fmt.Errorf("strain: displacement %.3f m outside linear range", displacementM)
	}
	return b.StrainPerMeter * displacementM, nil
}

// Sensor is the complete chain: beam -> gauge bridge -> amplifier.
type Sensor struct {
	Beam   Beam
	Bridge Bridge
	Amp    Amplifier
}

// NewSensor assembles the default Fig. 17 chain.
func NewSensor() *Sensor {
	return &Sensor{Beam: DefaultBeam(), Bridge: DefaultBridge(), Amp: DefaultAmplifier()}
}

// VoltageAt returns the amplifier output for a given end displacement.
func (s *Sensor) VoltageAt(displacementM float64) (float64, error) {
	eps, err := s.Beam.StrainAt(displacementM)
	if err != nil {
		return 0, err
	}
	return s.Amp.Output(s.Bridge.DifferentialVolts(eps)), nil
}
