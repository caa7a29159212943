package dsp

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"repro/internal/phy"
	"repro/internal/sim"
)

func TestAppendChipMeans(t *testing.T) {
	out := AppendChipMeans([]float64{9}, []float64{1, 1, 1, 1, 0, 0, 0, 0, 2, 2, 2, 2, 5}, 4)
	want := []float64{9, 1, 0, 2} // dst kept, trailing partial chip dropped
	if len(out) != len(want) {
		t.Fatalf("out = %v", out)
	}
	for i := range want {
		if math.Abs(out[i]-want[i]) > 1e-12 {
			t.Fatalf("out = %v, want %v", out, want)
		}
	}
	// A fractional rate keeps absolute boundaries (2.5, 5, 7.5, 10):
	// chips of 3, 2, 3 and 2 samples.
	out = AppendChipMeans(nil, []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 2.5)
	want = []float64{1, 3.5, 6, 8.5}
	if len(out) != len(want) {
		t.Fatalf("fractional: out = %v", out)
	}
	for i := range want {
		if math.Abs(out[i]-want[i]) > 1e-12 {
			t.Fatalf("fractional: out = %v, want %v", out, want)
		}
	}
}

func TestDecodeULFromBasebandErrors(t *testing.T) {
	if _, err := new(SlotScratch).decodeULFromBaseband(make([]float64, 64), 1); err == nil {
		t.Error("1 sample/chip accepted")
	}
}

func TestSliceChips(t *testing.T) {
	bits, th := SliceChips([]float64{0.1, 0.9, 0.15, 0.85})
	if !bytes.Equal(bits, phy.Bits{0, 1, 0, 1}) {
		t.Errorf("bits = %v", bits)
	}
	if th < 0.4 || th > 0.6 {
		t.Errorf("threshold = %v", th)
	}
	if b, _ := SliceChips(nil); b != nil {
		t.Error("empty input should return nil")
	}
}

// ulChips FM0-encodes a UL frame from initial level 0, as a tag sends
// it.
func ulChips(frame uint32) phy.Bits {
	return phy.AppendFM0(nil, uint64(frame), phy.ULFrameBits, 0)
}

// invert complements every chip.
func invert(chips phy.Bits) phy.Bits {
	out := make(phy.Bits, len(chips))
	for i, c := range chips {
		out[i] = c ^ 1
	}
	return out
}

// Every (TID, payload) packet survives word → FM0 chips → the reader's
// receive chain (slicer, frame search, FM0 decode, CRC) unchanged, in
// both polarities; the space is 2^16 packets, so all are checked.
func TestDecodeULFrameAllPackets(t *testing.T) {
	soft := make([]float64, 4+2*phy.ULFrameBits+2)
	var chips phy.Bits
	for body := 0; body < 1<<(phy.TIDBits+phy.PayloadBits); body++ {
		pkt := phy.ULPacket{TID: uint8(body >> phy.PayloadBits), Payload: uint16(body) & 0xFFF}
		frame, err := pkt.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		chips = append(chips[:0], 0, 0, 0, 0)
		chips = append(phy.AppendFM0(chips, uint64(frame), phy.ULFrameBits, 0), 0, 0)
		for _, polarity := range []float64{1, -1} {
			for i, c := range chips {
				soft[i] = polarity * float64(c)
			}
			if got, err := DecodeULFrame(soft); err != nil || got != pkt {
				t.Fatalf("%+v (polarity %v) decoded to %+v, %v", pkt, polarity, got, err)
			}
		}
	}
}

func TestFindULFrame(t *testing.T) {
	frame, err := phy.ULPacket{TID: 3, Payload: 0x123}.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	chips := ulChips(frame)
	// Prepend idle chips.
	stream := append(phy.Bits{0, 0, 1, 0, 0, 1}, chips...)
	start, inv, err := FindULFrame(stream, 0)
	if err != nil {
		t.Fatal(err)
	}
	if inv {
		t.Error("unexpected polarity inversion")
	}
	if start != 6 {
		t.Errorf("start = %d, want 6", start)
	}
}

func TestFindULFrameInverted(t *testing.T) {
	frame, _ := phy.ULPacket{TID: 1, Payload: 7}.Marshal()
	chips := invert(ulChips(frame))
	start, inv, err := FindULFrame(chips, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !inv || start != 0 {
		t.Errorf("start=%d inv=%v, want 0,true", start, inv)
	}
}

func TestFindULFrameTolerance(t *testing.T) {
	frame, _ := phy.ULPacket{TID: 2, Payload: 9}.Marshal()
	chips := ulChips(frame)
	chips[3] ^= 1 // corrupt one preamble chip
	if _, _, err := FindULFrame(chips, 0); err == nil {
		t.Error("zero-tolerance search should miss the damaged preamble")
	}
	start, _, err := FindULFrame(chips, 1)
	if err != nil {
		t.Fatal(err)
	}
	if start != 0 {
		t.Errorf("start = %d", start)
	}
}

func TestFindULFrameMissing(t *testing.T) {
	if _, _, err := FindULFrame(make(phy.Bits, 100), 1); !errors.Is(err, ErrNoPreamble) {
		t.Errorf("got %v, want ErrNoPreamble", err)
	}
}

func TestDecodeULFrameCleanBaseband(t *testing.T) {
	pkt := phy.ULPacket{TID: 9, Payload: 0xABC}
	frame, _ := pkt.Marshal()
	chips := ulChips(frame)
	p := ULSynthParams{
		Fs: 500000, ChipRate: 750,
		Leakage: 0.2, Backscatter: 0.05, NoiseRMS: 0,
	}
	soft := SynthesizeULBaseband(chips, 16, p, nil)
	// Average per chip: 16 samples per chip.
	chipMeans := AppendChipMeans(nil, soft, 16)
	got, err := DecodeULFrame(chipMeans)
	if err != nil {
		t.Fatal(err)
	}
	if got != pkt {
		t.Errorf("decoded %+v, want %+v", got, pkt)
	}
}

// A reader that locks onto the complementary level sees every chip
// inverted; the frame must still decode.
func TestDecodeULFrameInverted(t *testing.T) {
	pkt := phy.ULPacket{TID: 6, Payload: 0x3C5}
	frame, _ := pkt.Marshal()
	chips := append(phy.Bits{0, 0, 0}, ulChips(frame)...)
	p := ULSynthParams{Fs: 6000, ChipRate: 750, Leakage: 0.25, Backscatter: -0.05}
	got, err := DecodeULFrame(ULChipMeans(nil, chips, 8, p, nil))
	if err != nil {
		t.Fatal(err)
	}
	if got != pkt {
		t.Errorf("decoded %+v, want %+v", got, pkt)
	}
}

// sliceCertified must call a chip only when no placement of the means
// inside their brackets, and no rounding within slack, flips it.
func TestSliceCertified(t *testing.T) {
	cases := []struct {
		name     string
		mid, rad []float64
		slack    float64
		want     phy.Bits // nil: not certain
	}{
		{"clear", []float64{0, 1, 0.2, 0.9}, []float64{0.01, 0.01, 0.01, 0.01}, 0, phy.Bits{0, 1, 0, 1}},
		{"own bracket straddles", []float64{0, 1, 0.53}, []float64{0.01, 0.01, 0.05}, 0, nil},
		// Chip 2 is exact, but the threshold can sit anywhere in 0.5 ± 0.1.
		{"threshold uncertain", []float64{0, 1, 0.58}, []float64{0.1, 0, 0}, 0, nil},
		{"threshold certain", []float64{0, 1, 0.62}, []float64{0.1, 0, 0}, 0, phy.Bits{0, 1, 1}},
		{"within slack", []float64{0, 1, 0.5 + 1e-9}, []float64{0, 0, 0}, 1e-6, nil},
		{"beyond slack", []float64{0, 1, 0.5 + 1e-5}, []float64{0, 0, 0}, 1e-6, phy.Bits{0, 1, 1}},
	}
	for _, c := range cases {
		got, ok := sliceCertified(nil, c.mid, c.rad, c.slack)
		if ok != (c.want != nil) || ok && !bytes.Equal(got, c.want) {
			t.Errorf("%s: got %v, %v; want %v", c.name, got, ok, c.want)
		}
		if exact, _ := SliceChips(c.mid); ok && !bytes.Equal(exact, got) {
			t.Errorf("%s: certified %v, SliceChips %v", c.name, got, exact)
		}
	}
}

func TestDecodeULFrameNoisyBaseband(t *testing.T) {
	rng := sim.NewRand(77)
	pkt := phy.ULPacket{TID: 5, Payload: 0x5A5}
	frame, _ := pkt.Marshal()
	chips := ulChips(frame)
	p := ULSynthParams{
		Fs: 500000, ChipRate: 375,
		Leakage: 0.2, Backscatter: 0.05, NoiseRMS: 0.03,
	}
	ok := 0
	const trials = 50
	for i := 0; i < trials; i++ {
		soft := SynthesizeULBaseband(chips, 32, p, rng)
		got, err := DecodeULFrame(AppendChipMeans(nil, soft, 32))
		if err == nil && got == pkt {
			ok++
		}
	}
	// At the default 375 bps the paper sees <0.5% loss; our noisy
	// baseband should decode nearly always.
	if ok < trials-1 {
		t.Errorf("decoded %d/%d noisy frames", ok, trials)
	}
}

func TestSynthesizeULBasebandLevels(t *testing.T) {
	p := ULSynthParams{Fs: 500000, ChipRate: 375, Leakage: 0.5, Backscatter: 0.1}
	soft := SynthesizeULBaseband(phy.Bits{0, 1}, 4, p, nil)
	if len(soft) != 8 {
		t.Fatalf("length %d", len(soft))
	}
	for i := 0; i < 4; i++ {
		if soft[i] != 0.5 {
			t.Errorf("chip 0 sample %d = %v, want leakage", i, soft[i])
		}
	}
	for i := 4; i < 8; i++ {
		if math.Abs(soft[i]-0.6) > 1e-12 {
			t.Errorf("chip 1 sample %d = %v, want leakage+backscatter", i, soft[i])
		}
	}
}

func TestSynthesizeDLEnvelopeRingEffect(t *testing.T) {
	const fs = 100000.0
	p := DLSynthParams{
		ChipSeconds: 0.004, HighVolts: 1.0, LowLeak: 0.05,
		RingTau: 0.002, // exaggerated ring for the test
	}
	env := synthesizeDLEnvelope(phy.Bits{1, 0, 0}, fs, p, nil)
	spc := int(p.ChipSeconds * fs)
	// Right after the high->low transition the envelope must still be
	// elevated (the ring tail)...
	after := env[spc+spc/10]
	if after < 0.3 {
		t.Errorf("ring tail missing: %v just after transition", after)
	}
	// ...but decays toward the leakage floor by the end.
	tail := env[3*spc-2]
	if tail > 0.3 {
		t.Errorf("ring tail did not decay: %v", tail)
	}
}

func TestSynthesizeDLEnvelopeNoRingWithShortTau(t *testing.T) {
	const fs = 100000.0
	p := DLSynthParams{
		ChipSeconds: 0.004, HighVolts: 1.0, LowLeak: 0.05,
		RingTau: 160e-6, // the real PZT tau: short vs a 4 ms chip
	}
	env := synthesizeDLEnvelope(phy.Bits{1, 0}, fs, p, nil)
	spc := int(p.ChipSeconds * fs)
	mid := env[spc+spc/2]
	if mid > 0.1 {
		t.Errorf("envelope at low-chip midpoint = %v, ring should be gone", mid)
	}
}
