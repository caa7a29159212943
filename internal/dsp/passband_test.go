package dsp

import (
	"math"
	"testing"

	"repro/internal/phy"
	"repro/internal/sim"
)

// Passband tests of the reader chain of Sec. 6.1: a 90 kHz capture at
// 500 kHz is mixed down, integrated and dumped, and the magnitudes go
// to DecodeSlot.
const (
	pbFs      = 500_000.0
	pbCarrier = 90_000.0
	// pbDump is the integrate-and-dump length: 25 samples span exactly
	// nine cycles of the 2×carrier mixing product, which therefore sums
	// to zero.
	pbDump = 25
	// pbChipRate gives 20 dumped samples per chip, so the samples that
	// straddle a chip edge stay below CountClusters' 4% floor.
	pbChipRate = 1000.0
)

type pbTag struct {
	pkt phy.ULPacket
	amp float64
}

// synthCapture renders one or more overlapping tag bursts plus carrier
// leakage at the reader ADC.
func synthCapture(t *testing.T, chipRate float64, tags []pbTag, noise float64, seed uint64) []float64 {
	t.Helper()
	rng := sim.NewRand(seed)
	var longest int
	chipStreams := make([]phy.Bits, len(tags))
	for i, tg := range tags {
		frame, err := tg.pkt.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		chips := append(make(phy.Bits, 8), ulChips(frame)...)
		chips = append(chips, make(phy.Bits, 4)...)
		chipStreams[i] = chips
		if n := int(float64(len(chips)) * pbFs / chipRate); n > longest {
			longest = n
		}
	}
	out := make([]float64, longest+1)
	for n := range out {
		tt := float64(n) / pbFs
		amp := 0.2 // leakage
		for i, tg := range tags {
			chipIdx := int(tt * chipRate)
			if chipIdx < len(chipStreams[i]) && chipStreams[i][chipIdx]&1 == 1 {
				amp += tg.amp
			}
		}
		out[n] = amp*math.Sin(2*math.Pi*pbCarrier*tt) + rng.NormFloat64()*noise
	}
	return out
}

// mixDown is the scalar passband front end: a math.Cos/math.Sin mixer,
// integrate-and-dump over pbDump samples, and the magnitude.
func mixDown(capture []float64) []float64 {
	mags := make([]float64, len(capture)/pbDump)
	for j := range mags {
		var i, q float64
		for k := j * pbDump; k < (j+1)*pbDump; k++ {
			w := 2 * math.Pi * pbCarrier * float64(k) / pbFs
			i += capture[k] * math.Cos(w)
			q += capture[k] * math.Sin(w)
		}
		mags[j] = 2 * math.Hypot(i, q) / pbDump
	}
	return mags
}

func TestReaderChainSoloDecode(t *testing.T) {
	pkt := phy.ULPacket{TID: 6, Payload: 0x2A5}
	capture := synthCapture(t, pbChipRate, []pbTag{{pkt, 0.05}}, 0.01, 1)
	v := DecodeSlot(mixDown(capture), pbFs/pbDump/pbChipRate, new(SlotScratch))
	if !v.Decoded {
		t.Fatal("solo packet not decoded")
	}
	if v.Packet != pkt {
		t.Errorf("decoded %+v, want %+v", v.Packet, pkt)
	}
	if v.Collision {
		t.Errorf("false collision: %d clusters", v.Clusters)
	}
	if v.Clusters != 2 {
		t.Errorf("clusters = %d, want 2 (leakage and leakage+backscatter)", v.Clusters)
	}
}

func TestReaderChainDetectsCollisionDespiteCapture(t *testing.T) {
	// Two overlapping tags: the strong one may decode (capture effect),
	// but the cluster count must expose the collision — the Sec. 5.3
	// mechanism end-to-end from the passband capture.
	strong := phy.ULPacket{TID: 3, Payload: 0x111}
	weak := phy.ULPacket{TID: 9, Payload: 0x777}
	capture := synthCapture(t, pbChipRate, []pbTag{{strong, 0.06}, {weak, 0.025}}, 0.004, 2)
	if v := DecodeSlot(mixDown(capture), pbFs/pbDump/pbChipRate, new(SlotScratch)); !v.Collision {
		t.Errorf("collision undetected: %d clusters", v.Clusters)
	}
}

func TestDecodeULFramePassbandChain(t *testing.T) {
	// End-to-end: passband synthesis at 500 kHz -> down-conversion ->
	// magnitude -> symbol-timing search -> decode with CRC.
	pkt := phy.ULPacket{TID: 12, Payload: 0x3C3}
	capture := synthCapture(t, pbChipRate, []pbTag{{pkt, 0.06}}, 0.01, 3)
	got, err := new(SlotScratch).decodeULFromBaseband(mixDown(capture), pbFs/pbDump/pbChipRate)
	if err != nil {
		t.Fatalf("passband decode failed: %v", err)
	}
	if got != pkt {
		t.Errorf("decoded %+v, want %+v", got, pkt)
	}
}
