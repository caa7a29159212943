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
