package dsp

import (
	"testing"

	"repro/internal/sim"
)

// makeBlock builds an amplitude block that cycles through the given
// levels with additive noise.
func makeBlock(levels []float64, perLevel int, noise float64, rng *sim.Rand) []float64 {
	var out []float64
	for _, l := range levels {
		for i := 0; i < perLevel; i++ {
			m := l
			if rng != nil {
				m += rng.NormFloat64() * noise
			}
			out = append(out, m)
		}
	}
	return out
}

func TestCountClustersSingleTag(t *testing.T) {
	rng := sim.NewRand(5)
	// One tag OOKing produces two levels: leakage and leakage+bs.
	block := makeBlock([]float64{0.20, 0.25, 0.20, 0.25, 0.20, 0.25}, 200, 0.004, rng)
	n := new(SlotScratch).countClusters(block, 0.015, 0.05)
	if n != 2 {
		t.Errorf("clusters = %d, want 2 for a single tag", n)
	}
}

func TestCountClustersTwoTags(t *testing.T) {
	rng := sim.NewRand(6)
	// Two tags superposed: four distinct levels.
	block := makeBlock([]float64{0.20, 0.25, 0.28, 0.33, 0.20, 0.33, 0.25, 0.28}, 150, 0.004, rng)
	n := new(SlotScratch).countClusters(block, 0.015, 0.05)
	if n < 3 {
		t.Errorf("clusters = %d, want > 2 for two tags", n)
	}
}

func TestCountClustersIgnoresTransients(t *testing.T) {
	rng := sim.NewRand(7)
	block := makeBlock([]float64{0.2, 0.3}, 500, 0.003, rng)
	// A handful of mid-transition samples must not create a third
	// cluster.
	block = append(block, 0.25, 0.251, 0.249)
	n := new(SlotScratch).countClusters(block, 0.02, 0.05)
	if n != 2 {
		t.Errorf("clusters = %d, transients not suppressed", n)
	}
}

func TestCountClustersDegenerate(t *testing.T) {
	if new(SlotScratch).countClusters(nil, 0.1, 0.1) != 0 {
		t.Error("empty block should have 0 clusters")
	}
	if new(SlotScratch).countClusters([]float64{1}, 0, 0.1) != 0 {
		t.Error("zero radius should return 0")
	}
	if new(SlotScratch).countClusters([]float64{1}, 0.1, 0.1) != 1 {
		t.Error("single sample should form 1 cluster")
	}
	if new(SlotScratch).countClusters([]float64{-1, 1}, 0.1, 0.1) != 1 {
		t.Error("samples of equal magnitude should share a cluster")
	}
}

func TestCaptureEffectScenario(t *testing.T) {
	// The motivating case from Sec. 5.3: a strong and a weak tag
	// transmit concurrently; the strong one may decode fine, but the
	// cluster count must still reveal the collision.
	rng := sim.NewRand(8)
	strong, weak, leak := 0.10, 0.03, 0.20
	levels := []float64{
		leak,                 // both absorptive
		leak + strong,        // strong reflective
		leak + weak,          // weak reflective
		leak + strong + weak, // both reflective
	}
	block := makeBlock(levels, 300, 0.004, rng)
	if new(SlotScratch).countClusters(block, 0.012, 0.04) <= 2 {
		t.Error("capture-effect collision went undetected")
	}
}
