package energy

// Multiplier is an N-stage voltage multiplier (Dickson charge pump,
// Fig. 4): cascaded voltage doublers that amplify the rectified PZT
// output. The open-circuit output follows the paper's formula
//
//	Vdd = 2N (Vp - Von)
//
// where Vp is the PZT peak voltage and Von the per-diode drop. The pump
// is not a free lunch: its output impedance grows linearly with the
// stage count (Rout = N / (f * Cstage)), which is the "inefficiency in
// energy conversion" of Challenge 2 — more stages reach the activation
// threshold sooner but charge more slowly.
type Multiplier struct {
	Stages int
	Diode  Diode
	// StageFarads is the per-stage pump capacitance.
	StageFarads float64
	// PumpHz is the switching frequency — the 90 kHz carrier itself.
	PumpHz float64

	// von is Diode.EffectiveDrop (a logarithm of constants) for the
	// diode NewMultiplier built the pump with. OpenCircuitVoltage runs
	// on every tag's energy tick and recomputes the drop only once
	// Diode no longer equals vonDiode; it never writes the cache, so a
	// shared Multiplier stays safe to read.
	von       float64
	vonDiode  Diode
	vonCached bool
}

// NewMultiplier returns the paper's default pump: 8 stages (16x) of
// CDBU0130L Schottky doublers clocked by the 90 kHz carrier.
func NewMultiplier(stages int) *Multiplier {
	d := Schottky()
	return &Multiplier{
		Stages:      stages,
		Diode:       d,
		StageFarads: 2.7e-9,
		PumpHz:      90_000,
		von:         d.EffectiveDrop(),
		vonDiode:    d,
		vonCached:   true,
	}
}

// OpenCircuitVoltage returns the no-load output voltage for PZT peak
// input vpVolts. Inputs at or below the diode drop produce nothing: the pump
// cannot start.
func (m *Multiplier) OpenCircuitVoltage(vpVolts float64) float64 {
	von := m.von
	if !m.vonCached || m.Diode != m.vonDiode {
		von = m.Diode.EffectiveDrop()
	}
	if vpVolts <= von {
		return 0
	}
	return 2 * float64(m.Stages) * (vpVolts - von)
}

// OutputImpedance returns the pump's effective source resistance in
// ohms: Rout = N / (f * C). This is what limits charging current into
// the supercapacitor.
func (m *Multiplier) OutputImpedance() float64 {
	if m.PumpHz <= 0 || m.StageFarads <= 0 {
		return 0
	}
	return float64(m.Stages) / (m.PumpHz * m.StageFarads)
}
