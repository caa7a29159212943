package mac

import (
	"math"
	"testing"
	"time"
)

// speedupVsEverySlot times the sparse and every-slot runs in
// alternating blocks of rounds calls and returns the ratio of their
// fastest blocks, which holds steady on a loaded host where one pass of
// each would not.
func speedupVsEverySlot(rounds int, sparse, every func()) float64 {
	block := func(fn func()) float64 {
		start := time.Now() //lint:allow determinism-taint wall-clock measurement for the speedup-vs-every-slot metric, not simulation state
		for i := 0; i < rounds; i++ {
			fn()
		}
		return float64(time.Since(start).Nanoseconds()) //lint:allow determinism-taint wall-clock measurement for the speedup-vs-every-slot metric, not simulation state
	}
	k, o := math.Inf(1), math.Inf(1)
	for rep := 0; rep < 5; rep++ {
		o = math.Min(o, block(every))
		k = math.Min(k, block(sparse))
	}
	return o / k
}

// BenchmarkSlotSimStep steps c5 from a reset through 2,000 slots per
// op, fault-free and under everyFault, with the sparse kernel and with
// every tag visited in every slot. The sparse sub-benchmarks report
// "speedup-vs-every-slot"; make bench-smoke asserts the clean one and
// zero allocations on both.
func BenchmarkSlotSimStep(b *testing.B) {
	const slots = 2_000
	c5 := Table3Patterns()[4]
	for _, faulted := range []bool{false, true} {
		name := "clean"
		if faulted {
			name = "faulted"
		}
		// One simulator and fault source per kernel; a run rewinds both.
		var sims [2]*SlotSim
		var srcs [2]*everyFault
		for k := range sims {
			cfg := SlotSimConfig{Pattern: c5}
			if faulted {
				srcs[k] = newEveryFault(1, c5.NumTags())
				cfg.Faults = srcs[k]
			}
			s, err := NewSlotSim(cfg)
			if err != nil {
				b.Fatal(err)
			}
			sims[k] = s
		}
		sims[1].everySlot = true
		run := func(k int) func() {
			return func() {
				if srcs[k] != nil {
					srcs[k].rewind(1)
				}
				sims[k].Reset(1)
				for i := 0; i < slots; i++ {
					sims[k].Step()
				}
			}
		}
		sparse, every := run(0), run(1)
		b.Run(name+"/sparse", func(b *testing.B) {
			speedup := speedupVsEverySlot(20, sparse, every)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sparse()
			}
			b.ReportMetric(speedup, "speedup-vs-every-slot")
		})
		b.Run(name+"/every-slot", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				every()
			}
		})
	}
}
