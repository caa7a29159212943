package strain

import (
	"math"
	"testing"
)

// Resistance returns the gauge resistance under strain epsilon
// (dimensionless, e.g. 1e-3 = 1000 microstrain).
func (g Gauge) Resistance(epsilon float64) float64 {
	return g.NominalOhms * (1 + g.GaugeFactor*epsilon)
}

func TestGaugeResistance(t *testing.T) {
	g := DefaultGauge()
	if r := g.Resistance(0); r != g.NominalOhms {
		t.Errorf("unstrained resistance = %v", r)
	}
	// 1000 microstrain with GF 2.1: dR/R = 2.1e-3.
	r := g.Resistance(1e-3)
	want := 350 * (1 + 2.1e-3)
	if math.Abs(r-want) > 1e-9 {
		t.Errorf("R = %v, want %v", r, want)
	}
	// Compression decreases resistance.
	if g.Resistance(-1e-3) >= g.NominalOhms {
		t.Error("compression should lower resistance")
	}
	// A full bridge of two gauges in tension and two in compression
	// outputs Vex*(R+ - R-)/(R+ + R-), which is the Vex*GF*epsilon that
	// DifferentialVolts returns.
	b := DefaultBridge()
	for _, eps := range []float64{-2e-3, -1e-4, 0, 5e-4, 3e-3} {
		rp, rm := b.Gauge.Resistance(eps), b.Gauge.Resistance(-eps)
		want := b.ExcitationVolts * (rp - rm) / (rp + rm)
		if got := b.DifferentialVolts(eps); math.Abs(got-want) > 1e-12 {
			t.Errorf("bridge at %v: %v V, four-gauge bridge gives %v V", eps, got, want)
		}
	}
}

func TestBridgeLinearAndSigned(t *testing.T) {
	b := DefaultBridge()
	if b.DifferentialVolts(0) != 0 {
		t.Error("balanced bridge should output zero")
	}
	v1 := b.DifferentialVolts(1e-3)
	v2 := b.DifferentialVolts(2e-3)
	if math.Abs(v2-2*v1) > 1e-12 {
		t.Error("bridge not linear")
	}
	if b.DifferentialVolts(-1e-3) != -v1 {
		t.Error("bridge not antisymmetric")
	}
	// Full bridge at 1.8 V, GF 2.1, 1 millistrain: 3.78 mV.
	if math.Abs(v1-1.8*2.1*1e-3) > 1e-12 {
		t.Errorf("sensitivity = %v", v1)
	}
}

func TestAmplifierOffsetAndClamp(t *testing.T) {
	a := DefaultAmplifier()
	if a.Output(0) != a.OffsetVolts {
		t.Error("zero input should sit at offset")
	}
	if a.Output(1.0) != a.RailVolts {
		t.Error("positive overload should clamp to rail")
	}
	if a.Output(-1.0) != 0 {
		t.Error("negative overload should clamp to zero")
	}
	// Small-signal gain.
	dv := a.Output(1e-3) - a.Output(0)
	if math.Abs(dv-0.07) > 1e-9 {
		t.Errorf("gain = %v, want 70 V/V", dv/1e-3)
	}
}

func TestBeamRange(t *testing.T) {
	b := DefaultBeam()
	if _, err := b.StrainAt(0.2); err == nil {
		t.Error("out-of-range displacement accepted")
	}
	eps, err := b.StrainAt(0.05)
	if err != nil {
		t.Fatal(err)
	}
	if eps <= 0 {
		t.Error("positive displacement should strain positively")
	}
}

// TestFig17Shape verifies the case study's observable: voltage is
// monotone in displacement over the +/-10 cm sweep, spans a clearly
// measurable range, and stays within the 1.8 V single-supply rails.
func TestFig17Shape(t *testing.T) {
	s := NewSensor()
	prev := -1.0
	var minV, maxV = math.Inf(1), math.Inf(-1)
	for d := -0.10; d <= 0.101; d += 0.02 {
		v, err := s.VoltageAt(d)
		if err != nil {
			t.Fatalf("d=%v: %v", d, err)
		}
		if v <= prev {
			t.Fatalf("voltage not strictly increasing at d=%v", d)
		}
		prev = v
		minV = math.Min(minV, v)
		maxV = math.Max(maxV, v)
	}
	if minV < 0 || maxV > 1.8 {
		t.Errorf("range [%v, %v] escapes the rails", minV, maxV)
	}
	if maxV-minV < 0.5 {
		t.Errorf("span %.3f V too small to digitize meaningfully", maxV-minV)
	}
	// Zero displacement sits at the amplifier offset midpoint.
	mid, _ := s.VoltageAt(0)
	if math.Abs(mid-0.9) > 1e-9 {
		t.Errorf("midpoint = %v, want 0.9", mid)
	}
}

func TestSensorOutOfRange(t *testing.T) {
	s := NewSensor()
	if _, err := s.VoltageAt(0.5); err == nil {
		t.Error("out-of-range displacement accepted")
	}
}
