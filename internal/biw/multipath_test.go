package biw

import (
	"math"
	"testing"

	"repro/internal/dsp"
	"repro/internal/sim"
)

// Structural multipath. A vibration launched into the BiW does not take
// one path: it reverberates through ribs, seams and panel boundaries,
// arriving as a dense train of echoes. For communication this shows up
// as a spectral shelf around the backscatter tone that scales *with*
// the signal — the physical basis of the clutter-limited SNR model in
// Channel (see the calibration note there).
//
// Multipath synthesizes an echo profile and applies it to baseband
// waveforms, so the tests below can demonstrate the mechanism rather
// than assume it. No experiment runs it, so it lives here.

// Echo is one discrete arrival.
type Echo struct {
	DelaySeconds   float64
	AmplitudeRatio float64 // relative to the direct path (1.0)
}

// Multipath is a BiW reverberation profile.
type Multipath struct {
	Echoes []Echo
}

// NewMultipath draws a dense exponential-decay echo profile: count
// echoes over spreadSeconds, amplitudes decaying with the structure's
// reverberation constant and randomized signs (phase inversions at
// boundaries).
func NewMultipath(count int, spreadSeconds, decaySeconds float64, rng *sim.Rand) *Multipath {
	if count < 0 {
		count = 0
	}
	m := &Multipath{}
	for i := 0; i < count; i++ {
		d := rng.Float64() * spreadSeconds
		a := math.Exp(-d/decaySeconds) * (0.1 + 0.4*rng.Float64())
		if rng.Bool(0.5) {
			a = -a
		}
		m.Echoes = append(m.Echoes, Echo{DelaySeconds: d, AmplitudeRatio: a})
	}
	return m
}

// DefaultMultipath returns a profile representative of a welded steel
// floor assembly: ~20 significant echoes spread over 2 ms with a
// 0.8 ms reverberation constant.
func DefaultMultipath(rng *sim.Rand) *Multipath {
	return NewMultipath(20, 2e-3, 0.8e-3, rng)
}

// Apply convolves a baseband signal (sample rate fsHz) with the direct
// path plus the echo train.
func (m *Multipath) Apply(signal []float64, fsHz float64) []float64 {
	out := make([]float64, len(signal))
	copy(out, signal)
	for _, e := range m.Echoes {
		lag := int(e.DelaySeconds * fsHz)
		if lag <= 0 || lag >= len(signal) {
			continue
		}
		for i := lag; i < len(signal); i++ {
			out[i] += e.AmplitudeRatio * signal[i-lag]
		}
	}
	return out
}

// ApplyTimeVarying convolves the signal with the echo train while the
// echo amplitudes flutter slowly (structural micro-motion at flutterHz
// with relative depth), which is what actually creates the
// signal-proportional spectral shelf around the backscatter tone: a
// static channel preserves the tone's periodicity, a fluttering one
// smears sidebands into the surrounding band.
func (m *Multipath) ApplyTimeVarying(signal []float64, fsHz, flutterHz, depth float64, rng *sim.Rand) []float64 {
	out := make([]float64, len(signal))
	copy(out, signal)
	for _, e := range m.Echoes {
		lag := int(e.DelaySeconds * fsHz)
		if lag <= 0 || lag >= len(signal) {
			continue
		}
		// Each echo flutters with its own random phase and a rate
		// scattered around flutterHz (different panels move at
		// different modal frequencies).
		phase := rng.Float64() * 2 * math.Pi
		f := flutterHz * (0.5 + rng.Float64())
		for i := lag; i < len(signal); i++ {
			wobble := 1 + depth*math.Sin(2*math.Pi*f*float64(i)/fsHz+phase)
			out[i] += e.AmplitudeRatio * wobble * signal[i-lag]
		}
	}
	return out
}

// EnergyRatio returns the echo-train energy relative to the direct
// path — a rough clutter-to-signal figure.
func (m *Multipath) EnergyRatio() float64 {
	var e float64
	for _, echo := range m.Echoes {
		e += echo.AmplitudeRatio * echo.AmplitudeRatio
	}
	return e
}

func TestMultipathApplyIdentityWithoutEchoes(t *testing.T) {
	m := &Multipath{}
	sig := []float64{1, 2, 3, 4}
	out := m.Apply(sig, 1000)
	for i := range sig {
		if out[i] != sig[i] {
			t.Fatal("echo-free profile must be identity")
		}
	}
}

func TestMultipathAddsDelayedEnergy(t *testing.T) {
	m := &Multipath{Echoes: []Echo{{DelaySeconds: 0.001, AmplitudeRatio: 0.5}}}
	const fs = 10_000.0
	sig := make([]float64, 100)
	sig[0] = 1 // impulse
	out := m.Apply(sig, fs)
	if out[0] != 1 {
		t.Error("direct path altered")
	}
	lag := int(0.001 * fs)
	if out[lag] != 0.5 {
		t.Errorf("echo at %d = %v, want 0.5", lag, out[lag])
	}
}

func TestMultipathEchoOutOfRangeIgnored(t *testing.T) {
	m := &Multipath{Echoes: []Echo{
		{DelaySeconds: 10, AmplitudeRatio: 0.5}, // beyond the signal
		{DelaySeconds: 0, AmplitudeRatio: 0.5},  // zero lag
	}}
	sig := []float64{1, 0, 0}
	out := m.Apply(sig, 100)
	for i := range sig {
		if out[i] != sig[i] {
			t.Fatal("out-of-range echoes must not contribute")
		}
	}
}

func TestDefaultMultipathShape(t *testing.T) {
	rng := sim.NewRand(9)
	m := DefaultMultipath(rng)
	if len(m.Echoes) != 20 {
		t.Fatalf("%d echoes", len(m.Echoes))
	}
	for _, e := range m.Echoes {
		if e.DelaySeconds < 0 || e.DelaySeconds > 2e-3 {
			t.Errorf("delay %v outside spread", e.DelaySeconds)
		}
		if math.Abs(e.AmplitudeRatio) >= 1 {
			t.Errorf("echo stronger than direct path: %v", e.AmplitudeRatio)
		}
	}
	r := m.EnergyRatio()
	if r <= 0 || r > 2 {
		t.Errorf("energy ratio %v implausible", r)
	}
}

func TestNewMultipathNegativeCount(t *testing.T) {
	m := NewMultipath(-3, 1e-3, 1e-3, sim.NewRand(1))
	if len(m.Echoes) != 0 {
		t.Error("negative count should yield empty profile")
	}
}

// TestMultipathRaisesSpectralShelf demonstrates the clutter mechanism:
// reverberation smears modulation energy around the tone, raising the
// "surrounding frequency power" that bounds the measured SNR (the
// justification for Channel's ClutterCompression calibration).
func TestMultipathRaisesSpectralShelf(t *testing.T) {
	rng := sim.NewRand(11)
	const fs = 12_000.0
	const chipRate = 750.0
	// Square backscatter tone at chipRate/2.
	n := 8192
	sig := make([]float64, n)
	spc := int(fs / chipRate)
	level := 0.0
	for i := range sig {
		if i%spc == 0 {
			level = 1 - level
		}
		sig[i] = 0.1*level + rng.NormFloat64()*0.001
	}
	direct := append([]float64(nil), sig...)
	mp := DefaultMultipath(rng)
	// A static channel preserves the tone's periodicity, so it barely
	// moves the measured SNR...
	static := mp.Apply(sig, fs)
	// ...but a fluttering channel (structural micro-motion at tens of
	// Hz) smears sidebands into the surrounding band and caps the SNR —
	// the clutter-limited measurement of Sec. 6.3.
	flutter := mp.ApplyTimeVarying(sig, fs, 60.0, 0.5, rng)

	snrDirect, err := dsp.MeasureSNRdB(direct, fs, chipRate)
	if err != nil {
		t.Fatal(err)
	}
	snrStatic, err := dsp.MeasureSNRdB(static, fs, chipRate)
	if err != nil {
		t.Fatal(err)
	}
	snrFlutter, err := dsp.MeasureSNRdB(flutter, fs, chipRate)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(snrStatic-snrDirect) > 3 {
		t.Errorf("static multipath moved SNR too much: %.1f vs %.1f dB", snrStatic, snrDirect)
	}
	// The flutter sidebands are discrete, so the median-based shelf
	// moves by a dB or two at these echo amplitudes — the direction is
	// what matters: time variation, not the echoes themselves, is what
	// costs SNR.
	if snrFlutter >= snrDirect-1 {
		t.Errorf("fluttering multipath did not degrade measured SNR: %.1f vs %.1f dB",
			snrFlutter, snrDirect)
	}
	if snrFlutter >= snrStatic-1 {
		t.Errorf("flutter no worse than static: %.1f vs %.1f dB", snrFlutter, snrStatic)
	}
}
