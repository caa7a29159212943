// Package pzt models piezoelectric transducers (PZTs), the
// electro-mechanical elements that couple ARACHNET devices to the BiW.
// A PZT converts vibration to voltage and vice versa, and — central to
// backscatter — presents one of two acoustic faces to an incoming wave
// depending on its electrical termination (Fig. 2 of the paper):
//
//   - short-circuited (Reflective): the incident wave bounces back;
//   - open-circuited (Absorptive): the wave is absorbed and converted
//     into electrical energy, so little is reflected.
//
// Toggling between the two states with a MOSFET implements On-Off
// Keying of the reflected signal at almost zero power.
package pzt

import (
	"fmt"
	"math"
)

// State is the electrical termination of the transducer.
type State int

const (
	// Absorptive (open circuit): incident vibration is converted to
	// electrical energy; reflection is weak. This is also the state in
	// which the tag harvests.
	Absorptive State = iota
	// Reflective (short circuit): incident vibration is reflected.
	Reflective
)

func (s State) String() string {
	switch s {
	case Absorptive:
		return "absorptive"
	case Reflective:
		return "reflective"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Transducer is a PZT bonded to the BiW.
type Transducer struct {
	// ResonantHz is the transducer/BiW system resonance. All ARACHNET
	// communication happens at this frequency (90 kHz in the paper).
	ResonantHz float64
	// QualityFactor shapes the resonance bandwidth and the ring-down
	// tail after drive cutoff.
	QualityFactor float64
	// ShortReflectance is the amplitude reflection coefficient in the
	// Reflective (short-circuit) state.
	ShortReflectance float64
	// OpenReflectance is the residual reflection in the Absorptive
	// state; the OOK depth is the gap between the two reflectances.
	OpenReflectance float64

	state State
}

// New returns a transducer with the paper's operating point: 90 kHz
// resonance and a deep reflective/absorptive contrast.
func New() *Transducer {
	return &Transducer{
		ResonantHz:       90_000,
		QualityFactor:    45,
		ShortReflectance: 0.85,
		OpenReflectance:  0.30,
		state:            Absorptive,
	}
}

// State returns the current termination state.
func (t *Transducer) State() State { return t.state }

// SetState switches the termination (the tag firmware drives this from
// its UL-modulation timer interrupt).
func (t *Transducer) SetState(s State) { t.state = s }

// frequencyResponse is the normalized second-order resonance response.
func (t *Transducer) frequencyResponse(fHz float64) float64 {
	if fHz <= 0 {
		return 0
	}
	r := fHz / t.ResonantHz
	denom := math.Sqrt(math.Pow(1-r*r, 2) + math.Pow(r/t.QualityFactor, 2))
	if denom == 0 {
		return 1
	}
	resp := (r / t.QualityFactor) / denom
	if resp > 1 {
		resp = 1
	}
	return resp
}

// RingTimeConstant is the exponential decay constant (seconds) of the
// transducer's vibration after drive cutoff: tau = Q / (pi * f0). This
// "ring effect" smears PIE downlink symbols; the paper mitigates it by
// transmitting off-resonance tones for "low" symbols instead of
// silence ("FSK in, OOK out", Sec. 4.1).
func (t *Transducer) RingTimeConstant() float64 {
	return t.QualityFactor / (math.Pi * t.ResonantHz)
}

// FSKLowLeakage returns the effective residual "low"-symbol amplitude
// when the reader uses the FSK-in-OOK-out scheme with a low tone offset
// of offsetHz from resonance: the off-resonance tone excites the BiW
// only through the resonance skirt, so the tag's envelope detector sees
// a much smaller amplitude than during "high" symbols, and there is no
// ring tail because the drive never stops.
func (t *Transducer) FSKLowLeakage(offsetHz float64) float64 {
	return t.frequencyResponse(t.ResonantHz + offsetHz)
}
