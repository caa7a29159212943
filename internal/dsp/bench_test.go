package dsp

import (
	"context"
	"math"
	"testing"

	"repro/internal/phy"
	"repro/internal/sim"
)

// Micro and end-to-end benchmarks for the block DSP fast path. The
// {ref,fused} pairs keep the pre-fusion scalar pipeline runnable so a
// before/after comparison of the fast path (CHANGES.md, block-kernel
// DSP fast path entry) compares like against like.

func BenchmarkQuadOscBlock(b *testing.B) {
	o := NewQuadOsc(90_000, 500_000, 0)
	cos := make([]float64, 4096)
	sin := make([]float64, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Block(cos, sin)
	}
}

func BenchmarkQuadOscScalarRef(b *testing.B) {
	// The per-sample math.Sincos the oscillator replaces.
	var sink float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for n := 0; n < 4096; n++ {
			s, c := math.Sincos(2 * math.Pi * 90_000 * (float64(n) / 500_000))
			sink += s + c
		}
	}
	_ = sink
}

func BenchmarkFIRBlock(b *testing.B) {
	in := make([]float64, 4096)
	for i := range in {
		in[i] = math.Sin(float64(i) * 0.01)
	}
	b.Run("sample", func(b *testing.B) {
		f, _ := NewLowPassFIR(12_000, 500_000, 101)
		var sink float64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, x := range in {
				sink += f.ProcessSample(x)
			}
		}
		_ = sink
	})
	b.Run("block", func(b *testing.B) {
		f, _ := NewLowPassFIR(12_000, 500_000, 101)
		out := make([]float64, 0, len(in))
		f.ProcessBlock(out, in) // warm scratch
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out = f.ProcessBlock(out[:0], in)
		}
	})
}

func BenchmarkDownConvert(b *testing.B) {
	const fs, lo, factor = 500_000.0, 90_000.0, 10
	capture := make([]float64, 50_000)
	for i := range capture {
		capture[i] = math.Sin(2 * math.Pi * lo * float64(i) / fs)
	}
	b.Run("scalar", func(b *testing.B) {
		dc, _ := NewDownConverter(lo, fs, 12_000, 101)
		dec, _ := NewDecimator(factor)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dc.Reset()
			dec.phase = 0
			iq := dc.Process(capture)
			mags := Magnitudes(iq)
			_ = dec.Process(mags)
		}
	})
	b.Run("fused", func(b *testing.B) {
		dc, _ := NewDownConverter(lo, fs, 12_000, 101)
		dst := make([]IQ, 0, len(capture)/factor+1)
		if out, _ := dc.ProcessBlockDecim(dst[:0], capture, factor); out != nil {
			dst = out[:0] // warm the oscillator and delay-line scratch
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dc.Reset()
			out, _ := dc.ProcessBlockDecim(dst[:0], capture, factor)
			dst = out[:0]
		}
	})
}

func BenchmarkSynthesizeUL(b *testing.B) {
	rng := sim.NewRand(77)
	chips := randomChipsB(rng, 600)
	p := ULSynthParams{
		CarrierHz: 90_000, Fs: 500_000, ChipRate: 3000,
		Leakage: 1, Backscatter: 0.25, NoiseRMS: 0.02,
		PhaseRad: 0.3, TimingJitterPC: 0.02,
	}
	b.Run("ref", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = synthesizeULRef(chips, p, sim.NewRand(uint64(i)))
		}
	})
	b.Run("cursor", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = SynthesizeUL(chips, p, sim.NewRand(uint64(i)))
		}
	})
}

func randomChipsB(rng *sim.Rand, n int) phy.Bits {
	chips := make(phy.Bits, n)
	for i := range chips {
		chips[i] = byte(rng.Uint64() & 1)
	}
	return chips
}

// benchCapture renders one tag's full passband frame for the end-to-end
// chain benchmarks.
func benchCapture(b *testing.B, chipRate float64) []float64 {
	b.Helper()
	const fs = 500_000.0
	pkt := phy.ULPacket{TID: 6, Payload: 0x2A5}
	frame, err := pkt.Marshal()
	if err != nil {
		b.Fatal(err)
	}
	chips := append(make(phy.Bits, 8), phy.FM0Encode(frame, 0)...)
	chips = append(chips, make(phy.Bits, 4)...)
	rng := sim.NewRand(1)
	n := int(float64(len(chips))*fs/chipRate) + 1
	out := make([]float64, n)
	for i := range out {
		tt := float64(i) / fs
		amp := 0.2
		if ci := int(tt * chipRate); ci < len(chips) && chips[ci]&1 == 1 {
			amp += 0.05
		}
		out[i] = amp*math.Sin(2*math.Pi*90_000*tt) + rng.NormFloat64()*0.01
	}
	return out
}

// BenchmarkReaderChainE2E is the headline end-to-end waveform
// benchmark: one slot capture (500 kHz passband, 3000 bps frame)
// through the complete uplink receive path. "ref" reconstructs the
// pre-fusion chain from the scalar public APIs (per-sample Sin/Cos
// mixing, full-rate 101-tap FIR, allocated magnitude buffer, no
// decimation); "fused" is ReaderChain.Process with the block kernels.
func BenchmarkReaderChainE2E(b *testing.B) {
	const chipRate = 3000.0
	capture := benchCapture(b, chipRate)
	b.Run("ref", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v := refChainProcess(b, capture, chipRate)
			if !v.Decoded {
				b.Fatal("reference chain failed to decode")
			}
		}
	})
	b.Run("fused", func(b *testing.B) {
		chain := NewReaderChain(chipRate)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v, err := chain.Process(capture)
			if err != nil {
				b.Fatal(err)
			}
			if !v.Decoded {
				b.Fatal("fused chain failed to decode")
			}
		}
	})
}

// refChainProcess is the pre-fusion uplink receive path, assembled from
// the scalar building blocks exactly as ReaderChain.Process did before
// the block kernels: mix+filter every ADC sample, then cluster and
// decode at the full rate.
func refChainProcess(b *testing.B, capture []float64, chipRate float64) SlotVerdict {
	const fs, carrier = 500_000.0, 90_000.0
	const filterTaps = 101
	cutoff := 4 * chipRate
	if max := fs / 2 * 0.8; cutoff > max {
		cutoff = max
	}
	dc, err := NewDownConverter(carrier, fs, cutoff, filterTaps)
	if err != nil {
		b.Fatal(err)
	}
	iq := dc.Process(capture)
	skip := filterTaps
	if skip >= len(iq) {
		skip = 0
	}
	iq = iq[skip:]
	verdict := SlotVerdict{}
	lo := iq[0].Magnitude()
	hi := lo
	for _, s := range iq {
		m := s.Magnitude()
		if m < lo {
			lo = m
		}
		if m > hi {
			hi = m
		}
	}
	radius := (hi - lo) / 8
	if radius <= 0 {
		radius = 1e-6
	}
	verdict.Clusters = CountClusters(iq, radius, 0.04)
	verdict.Collision = verdict.Clusters > 2
	mags := Magnitudes(iq)
	if pkt, err := DecodeULFromBaseband(mags, fs/chipRate); err == nil {
		verdict.Packet = pkt
		verdict.Decoded = true
	}
	return verdict
}

// BenchmarkPipelineBlocks streams blocks through a Run()ing pipeline
// with the free-list recycling chunk buffers: per-block steady state
// allocates nothing (the in-place FIR stage reuses the block, the sink
// returns it to the pool, the source reuses it).
func BenchmarkPipelineBlocks(b *testing.B) {
	fir, _ := NewLowPassFIR(12_000, 500_000, 101)
	p := NewPipeline(4, func(blk Block) Block { return fir.ProcessBlock(blk[:0], blk) })
	src := make([]float64, 4096)
	for i := range src {
		src[i] = math.Sin(float64(i) * 0.01)
	}
	// Warm the pool and the FIR work buffer.
	for i := 0; i < 8; i++ {
		p.pool.put(p.pool.get(len(src)))
	}
	_ = fir.ProcessBlock(make([]float64, 0, len(src)), src)
	in := make(chan Block, 4)
	out := p.Run(context.Background(), in)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for blk := range out {
			p.pool.put(blk)
		}
	}()
	for i := 0; i < 32; i++ { // warm the stage goroutines' stacks and the pool
		c := p.pool.get(len(src))
		in <- append(c, src...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := p.pool.get(len(src))
		c = append(c, src...)
		in <- c
	}
	close(in)
	<-done
}
