package dsp

import (
	"math"
	"math/cmplx"
	"testing"
)

func TestFFTImpulse(t *testing.T) {
	x := make([]complex128, 8)
	x[0] = 1
	if err := FFT(x); err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Errorf("bin %d = %v, want 1 (flat spectrum of impulse)", i, v)
		}
	}
}

func TestFFTSingleTone(t *testing.T) {
	const n = 64
	x := make([]complex128, n)
	k := 5
	for i := range x {
		x[i] = complex(math.Cos(2*math.Pi*float64(k*i)/n), 0)
	}
	if err := FFT(x); err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		mag := cmplx.Abs(v)
		if i == k || i == n-k {
			if math.Abs(mag-n/2) > 1e-9 {
				t.Errorf("bin %d = %v, want %v", i, mag, n/2)
			}
		} else if mag > 1e-9 {
			t.Errorf("leakage at bin %d: %v", i, mag)
		}
	}
}

func TestFFTRejectsNonPow2(t *testing.T) {
	if err := FFT(make([]complex128, 12)); err == nil {
		t.Error("expected error for length 12")
	}
	if err := FFT(nil); err != nil {
		t.Errorf("empty FFT should be a no-op: %v", err)
	}
}

func TestFFTLinearity(t *testing.T) {
	const n = 32
	a := make([]complex128, n)
	b := make([]complex128, n)
	sum := make([]complex128, n)
	for i := range a {
		a[i] = complex(math.Sin(float64(i)), 0)
		b[i] = complex(math.Cos(float64(2*i)), 0)
		sum[i] = a[i] + b[i]
	}
	if err := FFT(a); err != nil {
		t.Fatal(err)
	}
	if err := FFT(b); err != nil {
		t.Fatal(err)
	}
	if err := FFT(sum); err != nil {
		t.Fatal(err)
	}
	for i := range sum {
		if cmplx.Abs(sum[i]-a[i]-b[i]) > 1e-9 {
			t.Fatalf("FFT not linear at bin %d", i)
		}
	}
}

func TestPSDToneLocation(t *testing.T) {
	const fs = 10000.0
	const f0 = 1000.0
	n := 4096
	sig := make([]float64, n)
	for i := range sig {
		sig[i] = math.Sin(2 * math.Pi * f0 * float64(i) / fs)
	}
	density, binHz, err := PSD(sig, fs)
	if err != nil {
		t.Fatal(err)
	}
	peak, peakIdx := 0.0, 0
	for i, d := range density {
		if d > peak {
			peak, peakIdx = d, i
		}
	}
	peakHz := float64(peakIdx) * binHz
	if math.Abs(peakHz-f0) > 2*binHz {
		t.Errorf("PSD peak at %v Hz, want %v", peakHz, f0)
	}
}

func TestPSDParseval(t *testing.T) {
	// Total band power of a unit sine is ~0.5 V^2.
	const fs = 8000.0
	n := 8192
	sig := make([]float64, n)
	for i := range sig {
		sig[i] = math.Sin(2 * math.Pi * 440 * float64(i) / fs)
	}
	density, binHz, err := PSD(sig, fs)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, d := range density {
		total += d * binHz
	}
	if math.Abs(total-0.5) > 0.05 {
		t.Errorf("total power = %v, want ~0.5", total)
	}
}

func TestPSDErrors(t *testing.T) {
	if _, _, err := PSD(nil, 100); err == nil {
		t.Error("empty signal accepted")
	}
	if _, _, err := PSD([]float64{1}, 0); err == nil {
		t.Error("zero sample rate accepted")
	}
}

func TestMeasureSNRdBTracksInjectedSNR(t *testing.T) {
	// Build an FM0-like square modulation plus white noise and verify
	// the PSD-based meter reports higher SNR for stronger signals.
	const fs = 12000.0
	const chipRate = 750.0
	rngState := uint64(12345)
	nextNoise := func() float64 {
		// Small deterministic LCG-based Gaussian-ish noise (sum of
		// uniforms) to avoid importing sim here.
		var s float64
		for k := 0; k < 12; k++ {
			rngState = rngState*6364136223846793005 + 1442695040888963407
			s += float64(rngState>>11) / (1 << 53)
		}
		return s - 6
	}
	gen := func(amp float64) []float64 {
		n := 8192
		sig := make([]float64, n)
		spc := int(fs / chipRate)
		level := 0.0
		for i := range sig {
			if i%spc == 0 {
				if level == 0 {
					level = amp
				} else {
					level = 0
				}
			}
			sig[i] = level + 0.01*nextNoise()
		}
		return sig
	}
	weak, err := MeasureSNRdB(gen(0.05), fs, chipRate)
	if err != nil {
		t.Fatal(err)
	}
	strong, err := MeasureSNRdB(gen(0.5), fs, chipRate)
	if err != nil {
		t.Fatal(err)
	}
	if strong <= weak+10 {
		t.Errorf("SNR meter not tracking: weak=%v strong=%v", weak, strong)
	}
}
