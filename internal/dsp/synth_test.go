package dsp

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/biw"
	"repro/internal/phy"
	"repro/internal/pzt"
	"repro/internal/sim"
)

// synthesizeDLEnvelope renders the tag-side envelope of a PIE chip
// stream sample by sample, drawing every noise value. It is the oracle
// for DLPulses: its samples fed one by one to a SchmittTrigger give the
// pulses DLPulses must return.
func synthesizeDLEnvelope(chips phy.Bits, fs float64, p DLSynthParams, rng *sim.Rand) []float64 {
	spc := p.ChipSeconds * fs
	n := int(float64(len(chips))*spc) + 1
	out := make([]float64, n)
	// Jittered boundaries in samples.
	bounds := make([]float64, len(chips)+1)
	for i := 1; i <= len(chips); i++ {
		j := 0.0
		if p.ReaderJitterSec > 0 && rng != nil {
			j = (rng.Float64()*2 - 1) * p.ReaderJitterSec * fs
		}
		bounds[i] = float64(i)*spc + j
	}
	level := 0.0
	chipIdx := 0
	for i := 0; i < n; i++ {
		for chipIdx < len(chips)-1 && float64(i) >= bounds[chipIdx+1] {
			chipIdx++
		}
		target := p.LowLeak
		if chips[chipIdx]&1 == 1 {
			target = p.HighVolts
		}
		if target >= level {
			level = target // drive rises immediately
		} else {
			// Ring-down: decay toward the low level.
			decay := math.Exp(-1 / (p.RingTau * fs))
			level = target + (level-target)*decay
		}
		v := level
		if p.NoiseRMS > 0 && rng != nil {
			v += rng.NormFloat64() * p.NoiseRMS
		}
		out[i] = v
	}
	return out
}

// dlPulsesOracle is DLPulses the long way: the whole envelope, then
// the comparator on every sample.
func dlPulsesOracle(chips phy.Bits, fs float64, p DLSynthParams, trig *SchmittTrigger, rng *sim.Rand) []float64 {
	var highs []float64
	high := false
	riseAt := 0
	for n, v := range synthesizeDLEnvelope(chips, fs, p, rng) {
		now := trig.ProcessSample(v)
		if now && !high {
			riseAt = n
		}
		if !now && high {
			highs = append(highs, float64(n-riseAt)/(p.ChipSeconds*fs))
		}
		high = now
	}
	return highs
}

// ulChipMeansOracle synthesizes the samples and integrates them.
func ulChipMeansOracle(chips phy.Bits, spc int, p ULSynthParams, rng *sim.Rand) []float64 {
	return AppendChipMeans(nil, SynthesizeULBaseband(chips, spc, p, rng), float64(spc))
}

// dlSchemeCell is one (rate, scheme) setting of the dl-scheme study.
type dlSchemeCell struct {
	name string
	fs   float64
	p    DLSynthParams
}

// dlSchemeCells are the eight settings of experiments.RunDLSchemeStudy.
func dlSchemeCells() []dlSchemeCell {
	tr := pzt.New()
	var cells []dlSchemeCell
	for _, rate := range []float64{250, 500, 1000, 2000} {
		for _, sch := range []struct {
			name             string
			lowLeak, ringTau float64
		}{
			{"ook", 0, tr.RingTimeConstant()},
			{"fsk", tr.FSKLowLeakage(8000), tr.RingTimeConstant() / 20},
		} {
			cells = append(cells, dlSchemeCell{
				name: fmt.Sprintf("%s/%g", sch.name, rate),
				fs:   48_000,
				p: DLSynthParams{
					ChipSeconds: 1 / rate, HighVolts: 1.0,
					LowLeak: sch.lowLeak, RingTau: sch.ringTau,
					NoiseRMS: 0.02, ReaderJitterSec: 0.0003,
				},
			})
		}
	}
	return cells
}

// nextBeacon draws a beacon the way the dl-scheme study does and
// returns its PIE chips with the two trailing low chips.
func nextBeacon(rng *sim.Rand) phy.Bits {
	frame := (phy.Beacon{Cmd: phy.Command(rng.Intn(16))}).Marshal()
	return append(phy.AppendPIE(nil, uint64(frame), phy.DLFrameBits), 0, 0)
}

// DLPulses must give the oracle's pulses beacon by beacon, and leave
// the RNG and the trigger where the oracle leaves them, on every
// dl-scheme cell. At the study's 0.02 V noise a skip that is not exact
// rarely shows, so two OOK stress cells add 0.1 V noise with the levels
// moved to a few σ from the thresholds, one with the low level inside
// the hysteresis band.
func TestDLPulsesMatchesOracle(t *testing.T) {
	beacons := 60
	if testing.Short() {
		beacons = 10
	}
	cells := dlSchemeCells()
	for _, lv := range [][2]float64{{0.1, 0.6}, {0.35, 1}} {
		c := cells[0]
		c.name = fmt.Sprintf("stress/low=%g/high=%g", lv[0], lv[1])
		c.p.NoiseRMS, c.p.LowLeak, c.p.HighVolts = 0.1, lv[0], lv[1]
		cells = append(cells, c)
	}
	for _, c := range cells {
		for seed := uint64(1); seed <= 3; seed++ {
			rngK, rngO := sim.NewRand(seed), sim.NewRand(seed)
			trigK, _ := NewSchmittTrigger(0.25, 0.45)
			trigO, _ := NewSchmittTrigger(0.25, 0.45)
			var got []float64
			for b := 0; b < beacons; b++ {
				chips := nextBeacon(rngK)
				if o := nextBeacon(rngO); !bytes.Equal(o, chips) {
					t.Fatalf("%s seed %d beacon %d: streams diverged before synthesis", c.name, seed, b)
				}
				got = DLPulses(got[:0], chips, c.fs, c.p, trigK, rngK)
				want := dlPulsesOracle(chips, c.fs, c.p, trigO, rngO)
				if len(got) != len(want) {
					t.Fatalf("%s seed %d beacon %d: %d pulses, oracle %d", c.name, seed, b, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s seed %d beacon %d pulse %d: %v, oracle %v", c.name, seed, b, i, got[i], want[i])
					}
				}
				if *rngK != *rngO || *trigK != *trigO {
					t.Fatalf("%s seed %d beacon %d: trailing RNG or trigger state differs", c.name, seed, b)
				}
			}
		}
	}
}

// Without noise or jitter DLPulses draws nothing: a bare chip stream
// gives its pulse widths exactly.
func TestDLPulsesNoiseless(t *testing.T) {
	trig, _ := NewSchmittTrigger(0.25, 0.45)
	p := DLSynthParams{ChipSeconds: 0.001, HighVolts: 1, RingTau: 1e-6}
	got := DLPulses(nil, phy.Bits{1, 0, 1, 1, 0, 1, 1, 1, 0}, 10_000, p, trig, nil)
	want := []float64{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("pulses %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 0.11 {
			t.Fatalf("pulses %v, want %v", got, want)
		}
	}
}

// ulLossCell is one (tag, rate) setting of Fig. 12(b).
type ulLossCell struct {
	name string
	p    ULSynthParams
}

// ulLossCells are the 18 settings of experiments.RunFig12b.
func ulLossCells(t testing.TB) []ulLossCell {
	ch := biw.DefaultChannel(biw.NewONVOL60())
	var cells []ulLossCell
	for _, rate := range []float64{93.75, 187.5, 375, 750, 1500, 3000} {
		for _, id := range []int{8, 4, 11} {
			amp, err := ch.BackscatterAmplitude(id)
			if err != nil {
				t.Fatal(err)
			}
			fs := rate * 8
			cells = append(cells, ulLossCell{
				name: fmt.Sprintf("tag%d/%g", id, rate),
				p:    ULSynthParams{Fs: fs, ChipRate: rate, Leakage: 0.2, Backscatter: amp, NoiseRMS: ch.NoiseRMS(fs)},
			})
		}
	}
	return cells
}

// nextULChips draws an uplink packet's padded FM0 chips.
func nextULChips(t testing.TB, rng *sim.Rand) phy.Bits {
	frame, err := (phy.ULPacket{TID: 3, Payload: uint16(rng.Intn(1 << 12))}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	chips := append(make(phy.Bits, 4), ulChips(frame)...)
	return append(chips, 0, 0)
}

// ULChipMeans must equal the synthesize-then-integrate pair bit for bit
// on every Fig. 12(b) cell, and leave the RNG where the pair leaves it.
func TestULChipMeansMatchesOracle(t *testing.T) {
	packets := 40
	if testing.Short() {
		packets = 5
	}
	for _, c := range ulLossCells(t) {
		for seed := uint64(1); seed <= 2; seed++ {
			rngK, rngO := sim.NewRand(seed), sim.NewRand(seed)
			var got []float64
			for k := 0; k < packets; k++ {
				chips := nextULChips(t, rngK)
				nextULChips(t, rngO)
				got = ULChipMeans(got[:0], chips, 8, c.p, rngK)
				want := ulChipMeansOracle(chips, 8, c.p, rngO)
				if len(got) != len(want) {
					t.Fatalf("%s seed %d packet %d: %d means, oracle %d", c.name, seed, k, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s seed %d packet %d chip %d: %v, oracle %v", c.name, seed, k, i, got[i], want[i])
					}
				}
				if *rngK != *rngO {
					t.Fatalf("%s seed %d packet %d: trailing RNG state differs", c.name, seed, k)
				}
			}
		}
	}
}

// ULDecoder.Decode must give what DecodeULFrame(ULChipMeans(...))
// gives, error included, and leave the RNG where that pair leaves it,
// on every Fig. 12(b) cell. At the paper's SNRs no chip comes close to
// the threshold, so a stress cell whose backscatter swing is 1.5 times
// the chip-rate noise also checks that packets too close to call go to
// the exact kernel, and that the ones it certifies are still right.
func TestULDecoderMatchesExact(t *testing.T) {
	const packets = 40
	cells := ulLossCells(t)
	stress := cells[len(cells)-1]
	stress.name = "stress/swing=1.5σ"
	stress.p.Backscatter = 1.5 * stress.p.NoiseRMS * math.Sqrt(8*stress.p.ChipRate/stress.p.Fs)
	cells = append(cells, stress)
	for _, c := range cells {
		for seed := uint64(1); seed <= 2; seed++ {
			rngK, rngO := sim.NewRand(seed), sim.NewRand(seed)
			var dec ULDecoder
			lost := 0
			for k := 0; k < packets; k++ {
				chips := nextULChips(t, rngK)
				nextULChips(t, rngO)
				got, errK := dec.Decode(chips, 8, c.p, rngK)
				want, errO := DecodeULFrame(ULChipMeans(nil, chips, 8, c.p, rngO))
				if got != want || fmt.Sprint(errK) != fmt.Sprint(errO) {
					t.Fatalf("%s seed %d packet %d: %+v, %v; exact %+v, %v", c.name, seed, k, got, errK, want, errO)
				}
				if *rngK != *rngO {
					t.Fatalf("%s seed %d packet %d: trailing RNG state differs", c.name, seed, k)
				}
				if errO != nil {
					lost++
				}
			}
			if c.name == stress.name {
				if n := dec.Fallbacks(); n == 0 || n == packets || lost == 0 || lost == packets {
					t.Errorf("%s seed %d: %d of %d packets fell back and %d were lost; want some of each, and some not",
						c.name, seed, n, packets, lost)
				}
			}
		}
	}
}

// speedupVsOracle times kernel and oracle in alternating blocks of
// rounds calls and returns the ratio of their fastest blocks, which
// holds steady on a loaded host where one pass of each would not.
func speedupVsOracle(rounds int, kernel, oracle func()) float64 {
	block := func(fn func()) float64 {
		start := time.Now() //lint:allow determinism-taint wall-clock measurement for the speedup-vs-oracle metric, not simulation state
		for i := 0; i < rounds; i++ {
			fn()
		}
		return float64(time.Since(start).Nanoseconds()) //lint:allow determinism-taint wall-clock measurement for the speedup-vs-oracle metric, not simulation state
	}
	k, o := math.Inf(1), math.Inf(1)
	for rep := 0; rep < 5; rep++ {
		o = math.Min(o, block(oracle))
		k = math.Min(k, block(kernel))
	}
	return o / k
}

// BenchmarkDLPulses decodes one beacon of the slowest dl-scheme cell
// (OOK ring tail at 250 bps) per op. It reports "speedup-vs-oracle"
// against the envelope-plus-trigger oracle on the same beacon and must
// run at zero allocations (both asserted by make bench-smoke).
func BenchmarkDLPulses(b *testing.B) {
	c := dlSchemeCells()[0]
	chips := nextBeacon(sim.NewRand(1))
	trig, _ := NewSchmittTrigger(0.25, 0.45)
	rng := sim.NewRand(2)
	pulses := DLPulses(nil, chips, c.fs, c.p, trig, rng)
	speedup := speedupVsOracle(10,
		func() { pulses = DLPulses(pulses[:0], chips, c.fs, c.p, trig, rng) },
		func() { dlPulsesOracle(chips, c.fs, c.p, trig, rng) })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pulses = DLPulses(pulses[:0], chips, c.fs, c.p, trig, rng)
	}
	b.ReportMetric(speedup, "speedup-vs-oracle")
}

// BenchmarkULChipMeans synthesizes and integrates one uplink packet of
// the weakest Fig. 12(b) cell (tag 11 at 3000 bps) per op, reporting
// "speedup-vs-oracle" against SynthesizeULBaseband plus AppendChipMeans.
// It must run at zero allocations (asserted by make bench-smoke).
func BenchmarkULChipMeans(b *testing.B) {
	cells := ulLossCells(b)
	c := cells[len(cells)-1]
	chips := nextULChips(b, sim.NewRand(1))
	rng := sim.NewRand(2)
	means := ULChipMeans(nil, chips, 8, c.p, rng)
	speedup := speedupVsOracle(50,
		func() { means = ULChipMeans(means[:0], chips, 8, c.p, rng) },
		func() { ulChipMeansOracle(chips, 8, c.p, rng) })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		means = ULChipMeans(means[:0], chips, 8, c.p, rng)
	}
	b.ReportMetric(speedup, "speedup-vs-oracle")
}

// BenchmarkULDecoder decodes one uplink packet of the weakest
// Fig. 12(b) cell (tag 11 at 3000 bps) per op with the certified
// decoder, reporting "speedup-vs-oracle" against ULChipMeans plus
// DecodeULFrame on the same packet. make bench-smoke asserts zero
// allocations and the speedup.
func BenchmarkULDecoder(b *testing.B) {
	cells := ulLossCells(b)
	c := cells[len(cells)-1]
	chips := nextULChips(b, sim.NewRand(1))
	rng := sim.NewRand(2)
	var dec ULDecoder
	var means []float64
	speedup := speedupVsOracle(50,
		func() { dec.Decode(chips, 8, c.p, rng) },
		func() {
			means = ULChipMeans(means[:0], chips, 8, c.p, rng)
			DecodeULFrame(means)
		})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec.Decode(chips, 8, c.p, rng)
	}
	b.ReportMetric(speedup, "speedup-vs-oracle")
}
