package pzt

import (
	"math"
	"testing"
)

func TestStateString(t *testing.T) {
	if Absorptive.String() != "absorptive" || Reflective.String() != "reflective" {
		t.Error("state names wrong")
	}
	if State(9).String() != "State(9)" {
		t.Error("unknown state formatting wrong")
	}
}

func TestStateToggle(t *testing.T) {
	tr := New()
	if tr.State() != Absorptive {
		t.Fatal("new transducer should start absorptive (harvesting)")
	}
	tr.SetState(Reflective)
	if tr.State() != Reflective {
		t.Fatal("SetState failed")
	}
	tr.SetState(Absorptive)
	if tr.State() != Absorptive {
		t.Fatal("SetState back to absorptive failed")
	}
}

// TestModulationDepth checks the OOK depth of the paper's operating
// point: the contrast between the two reflectances.
func TestModulationDepth(t *testing.T) {
	tr := New()
	depth := tr.ShortReflectance - tr.OpenReflectance
	if depth <= 0 {
		t.Fatal("modulation depth must be positive for OOK to work")
	}
	// The two states must be distinguishable: at least 0.3 contrast.
	if depth < 0.3 {
		t.Errorf("depth = %v too shallow", depth)
	}
}

// OpenCircuitVoltage returns the electrical peak voltage produced by an
// incident vibration of the given peak amplitude (expressed in the
// equivalent drive volts of the source wave) at frequency fHz. Off
// resonance the response collapses with a second-order rolloff.
func (t *Transducer) OpenCircuitVoltage(waveVolts, fHz float64) float64 {
	return waveVolts * t.CouplingCoefficient * t.frequencyResponse(fHz)
}

// HarvestablePower returns the electrical power (W) available to a
// matched load when the transducer absorbs a wave that would produce
// the given open-circuit voltage, assuming source impedance sourceOhms.
// P = Voc^2 / (8 Rs) for a matched resistive load on a sinusoidal
// source (peak voltage convention).
func (t *Transducer) HarvestablePower(openCircuitVolts, sourceOhms float64) float64 {
	if sourceOhms <= 0 {
		return 0
	}
	return openCircuitVolts * openCircuitVolts / (8 * sourceOhms)
}

func TestOpenCircuitVoltageAtResonance(t *testing.T) {
	tr := New()
	v := tr.OpenCircuitVoltage(1.0, tr.ResonantHz)
	if math.Abs(v-tr.CouplingCoefficient) > 0.01 {
		t.Errorf("on-resonance Voc = %v, want ~k = %v", v, tr.CouplingCoefficient)
	}
	// Linear in amplitude.
	if v2 := tr.OpenCircuitVoltage(2.0, tr.ResonantHz); math.Abs(v2-2*v) > 1e-9 {
		t.Errorf("Voc not linear: %v vs 2*%v", v2, v)
	}
}

func TestOpenCircuitVoltageOffResonance(t *testing.T) {
	tr := New()
	on := tr.OpenCircuitVoltage(1.0, tr.ResonantHz)
	off := tr.OpenCircuitVoltage(1.0, tr.ResonantHz+6000)
	if off >= on/2 {
		t.Errorf("off-resonance response too strong: %v vs %v", off, on)
	}
	if tr.OpenCircuitVoltage(1.0, 0) != 0 {
		t.Error("zero frequency must produce zero voltage")
	}
	// Ambient vehicle vibration (<100 Hz) is invisible.
	if amb := tr.OpenCircuitVoltage(1.0, 100); amb > 1e-3 {
		t.Errorf("ambient response = %v, want ~0", amb)
	}
}

func TestHarvestablePower(t *testing.T) {
	tr := New()
	p := tr.HarvestablePower(1.0, 1000)
	want := 1.0 / 8000
	if math.Abs(p-want) > 1e-12 {
		t.Errorf("power = %v, want %v", p, want)
	}
	if tr.HarvestablePower(1.0, 0) != 0 {
		t.Error("zero source impedance must yield zero power")
	}
	if tr.HarvestablePower(1.0, -5) != 0 {
		t.Error("negative impedance must yield zero power")
	}
	// Quadratic in voltage.
	if p4 := tr.HarvestablePower(2.0, 1000); math.Abs(p4-4*p) > 1e-12 {
		t.Error("power not quadratic in voltage")
	}
}

func TestRingTimeConstant(t *testing.T) {
	tr := New()
	tau := tr.RingTimeConstant()
	want := tr.QualityFactor / (math.Pi * tr.ResonantHz)
	if math.Abs(tau-want) > 1e-15 {
		t.Errorf("tau = %v, want %v", tau, want)
	}
	// For Q=45 at 90 kHz this is ~159 us: far shorter than a 4 ms PIE
	// chip at the default 250 bps, but long enough to matter at the
	// high rates where Fig. 13(a) shows the loss cliff.
	if tau < 100e-6 || tau > 250e-6 {
		t.Errorf("tau = %v s outside the plausible window", tau)
	}
}

// RingResidual returns the relative vibration amplitude remaining dtSeconds
// seconds after drive cutoff.
func (t *Transducer) RingResidual(dtSeconds float64) float64 {
	if dtSeconds <= 0 {
		return 1
	}
	return math.Exp(-dtSeconds / t.RingTimeConstant())
}

func TestRingResidualDecay(t *testing.T) {
	tr := New()
	if tr.RingResidual(0) != 1 {
		t.Error("residual at t=0 must be 1")
	}
	if tr.RingResidual(-1) != 1 {
		t.Error("negative dt should clamp to 1")
	}
	tau := tr.RingTimeConstant()
	r1 := tr.RingResidual(tau)
	if math.Abs(r1-math.Exp(-1)) > 1e-9 {
		t.Errorf("residual at tau = %v, want 1/e", r1)
	}
	prev := 1.0
	for dt := tau / 4; dt < 10*tau; dt += tau / 4 {
		r := tr.RingResidual(dt)
		if r >= prev {
			t.Fatal("residual must decay monotonically")
		}
		prev = r
	}
}

func TestFSKLowLeakage(t *testing.T) {
	tr := New()
	// The FSK low tone must leak far less than the high tone (which is
	// at resonance, response 1).
	leak := tr.FSKLowLeakage(8000)
	if leak > 0.25 {
		t.Errorf("FSK low leakage = %v, want < 0.25", leak)
	}
	// Larger offsets leak less.
	if l2 := tr.FSKLowLeakage(16000); l2 >= leak {
		t.Errorf("leakage should fall with offset: %v vs %v", l2, leak)
	}
}
