package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
	"sort"
)

// FFT computes the in-place radix-2 Cooley-Tukey FFT of x. The length
// must be a power of two.
func FFT(x []complex128) error {
	n := len(x)
	if n == 0 {
		return nil
	}
	if n&(n-1) != 0 {
		return fmt.Errorf("dsp: FFT length %d is not a power of two", n)
	}
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		ang := -2 * math.Pi / float64(length)
		wl := cmplx.Exp(complex(0, ang))
		for i := 0; i < n; i += length {
			w := complex(1, 0)
			for j := 0; j < length/2; j++ {
				u := x[i+j]
				v := x[i+j+length/2] * w
				x[i+j] = u + v
				x[i+j+length/2] = u - v
				w *= wl
			}
		}
	}
	return nil
}

// nextPow2 returns the smallest power of two >= n (minimum 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// PSD estimates the one-sided power spectral density of a real signal
// sampled at fs using a Hann-windowed periodogram, zero-padded to a
// power of two. It returns the density values (V^2/Hz) and the bin
// width in Hz.
func PSD(signal []float64, fs float64) (density []float64, binHz float64, err error) {
	if len(signal) == 0 {
		return nil, 0, fmt.Errorf("dsp: empty signal")
	}
	if fs <= 0 {
		return nil, 0, fmt.Errorf("dsp: non-positive sample rate")
	}
	n := nextPow2(len(signal))
	buf := make([]complex128, n)
	var winPower float64
	for i, v := range signal {
		w := 0.5 * (1 - math.Cos(2*math.Pi*float64(i)/float64(len(signal)-1+1)))
		buf[i] = complex(v*w, 0)
		winPower += w * w
	}
	if winPower == 0 {
		winPower = 1
	}
	if err := FFT(buf); err != nil {
		return nil, 0, err
	}
	half := n/2 + 1
	density = make([]float64, half)
	scale := 1 / (fs * winPower)
	for i := 0; i < half; i++ {
		p := real(buf[i])*real(buf[i]) + imag(buf[i])*imag(buf[i])
		density[i] = p * scale
		if i != 0 && i != n/2 {
			density[i] *= 2 // fold negative frequencies
		}
	}
	return density, fs / float64(n), nil
}

// MeasureSNRdB reproduces the paper's uplink SNR metric (Sec. 6.3):
// "dividing the backscattering frequency power by the surrounding
// frequency power via PSD". The measurement assumes the tag toggles a
// square test pattern (FM0 of all-zero data), which concentrates the
// backscatter in a tone at half the chip rate. The tone's power is
// integrated over a few bins; the surrounding shelf is the median bin
// density across the modulation band excluding the tone's
// neighbourhood. The result is normalized to the OOK sideband-power
// convention (square-wave fundamental carries (8/pi^2)x the average
// sideband power) so it is directly comparable to link-budget SNR over
// the 2x-chip-rate FM0 bandwidth.
func MeasureSNRdB(baseband []float64, fs, chipRate float64) (float64, error) {
	density, binHz, err := PSD(baseband, fs)
	if err != nil {
		return 0, err
	}
	tone := chipRate / 2
	toneBin := int(tone/binHz + 0.5)
	const guard = 6 // bins around the tone excluded from the shelf
	lo, hi := toneBin-3, toneBin+3
	if lo < 0 {
		lo = 0
	}
	var sig float64
	for i := lo; i <= hi && i < len(density); i++ {
		sig += density[i] * binHz
	}
	var ref []float64
	bandLo, bandHi := 0.25*chipRate, 1.25*chipRate
	for i, d := range density {
		f := float64(i) * binHz
		if f < bandLo || f > bandHi {
			continue
		}
		if i >= toneBin-guard && i <= toneBin+guard {
			continue
		}
		ref = append(ref, d)
	}
	if len(ref) == 0 {
		return math.Inf(1), nil
	}
	sort.Float64s(ref)
	noisePower := ref[len(ref)/2] * 2 * chipRate // FM0 occupied bandwidth
	if noisePower <= 0 {
		return math.Inf(1), nil
	}
	net := sig - ref[len(ref)/2]*7*binHz // remove in-window noise
	if net <= 0 {
		return math.Inf(-1), nil
	}
	// Square-wave fundamental power -> average OOK sideband power.
	const conventionDB = 2.1
	return 10*math.Log10(net/noisePower) - conventionDB, nil
}
