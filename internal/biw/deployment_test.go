package biw

import (
	"math"
	"testing"
)

// multiplier16x mirrors the 8-stage (16x) voltage multiplier output
// used in Fig. 11(a): Vdd = 2N(Vp - Von) with N=8, Von=0.15 V.
func multiplier16x(vp float64) float64 { return 16 * (vp - 0.15) }

func TestONVOL60Shape(t *testing.T) {
	d := NewONVOL60()
	if d.NumTags() != 12 {
		t.Fatalf("tags = %d, want 12", d.NumTags())
	}
	zones := map[string][]int{}
	for i, m := range d.Tags {
		zones[m.Zone] = append(zones[m.Zone], i+1)
	}
	if got := zones["front-row"]; len(got) != 3 {
		t.Errorf("front-row tags = %v, want 3 (tags 1-3)", got)
	}
	if got := zones["second-row"]; len(got) != 5 {
		t.Errorf("second-row tags = %v, want 5 (tags 4-8)", got)
	}
	if got := zones["cargo-area"]; len(got) != 4 {
		t.Errorf("cargo-area tags = %v, want 4 (tags 9-12)", got)
	}
	if d.Reader.Zone != "second-row" {
		t.Errorf("reader zone = %q, want second-row (above battery pack)", d.Reader.Zone)
	}
}

func TestONVOL60AllTagsReachable(t *testing.T) {
	d := NewONVOL60()
	for id := 1; id <= 12; id++ {
		loss, err := d.TagLossDB(id)
		if err != nil {
			t.Fatalf("tag %d: %v", id, err)
		}
		if loss <= 0 || loss > 60 {
			t.Errorf("tag %d: implausible loss %v dB", id, loss)
		}
		delay, err := d.TagDelay(id)
		if err != nil {
			t.Fatalf("tag %d delay: %v", id, err)
		}
		if delay < 0 || delay > 0.01 {
			t.Errorf("tag %d: implausible delay %v s", id, delay)
		}
	}
}

func TestTagMountRange(t *testing.T) {
	d := NewONVOL60()
	for _, id := range []int{0, -1, 13} {
		if _, err := d.TagMount(id); err == nil {
			t.Errorf("TagMount(%d) should fail", id)
		}
	}
	m, err := d.TagMount(8)
	if err != nil {
		t.Fatal(err)
	}
	if m.Device != "tag8" {
		t.Errorf("TagMount(8).Device = %q", m.Device)
	}
}

// TestFig11aCalibration locks the deployment to the paper's Fig. 11(a)
// anchor points: at 8 stages (16x) tag 4 harvests ~4.74 V (perpendicular
// junction), tag 11 ~2.70 V (deep cargo area), tag 8 is the maximum
// (closest to the reader), and every tag clears the 2.3 V activation
// threshold.
func TestFig11aCalibration(t *testing.T) {
	d := NewONVOL60()
	c := DefaultChannel(d)

	vdd := make([]float64, 13)
	for id := 1; id <= 12; id++ {
		vp, err := c.TagPeakVoltage(id)
		if err != nil {
			t.Fatal(err)
		}
		vdd[id] = multiplier16x(vp)
	}

	if math.Abs(vdd[4]-4.74) > 4.74*0.08 {
		t.Errorf("tag 4 Vdd = %.2f V, want 4.74 +/- 8%%", vdd[4])
	}
	if math.Abs(vdd[11]-2.70) > 2.70*0.08 {
		t.Errorf("tag 11 Vdd = %.2f V, want 2.70 +/- 8%%", vdd[11])
	}
	for id := 1; id <= 12; id++ {
		if vdd[id] < 2.3 {
			t.Errorf("tag %d Vdd = %.2f V below the 2.3 V activation threshold", id, vdd[id])
		}
		if id != 8 && vdd[id] >= vdd[8] {
			t.Errorf("tag %d (%.2f V) >= tag 8 (%.2f V); tag 8 must harvest the most", id, vdd[id], vdd[8])
		}
	}
	if vdd[11] > 2.9 {
		t.Errorf("tag 11 should be the weakest region, got %.2f V", vdd[11])
	}
}

// TestLossRank checks the deployment's connectivity order: tag 8,
// next to the reader, has the lowest path loss and tag 11, deep in the
// cargo area, the highest.
func TestLossRank(t *testing.T) {
	d := NewONVOL60()
	if d.NumTags() != 12 {
		t.Fatalf("tags = %d, want 12", d.NumTags())
	}
	best, worst := 0, 0
	var bestLoss, worstLoss float64
	for id := 1; id <= d.NumTags(); id++ {
		l, err := d.TagLossDB(id)
		if err != nil {
			t.Fatal(err)
		}
		if best == 0 || l < bestLoss {
			best, bestLoss = id, l
		}
		if worst == 0 || l > worstLoss {
			worst, worstLoss = id, l
		}
	}
	if best != 8 {
		t.Errorf("best-connected tag = %d, want 8 (next to reader)", best)
	}
	if worst != 11 {
		t.Errorf("worst-connected tag = %d, want 11 (deep cargo)", worst)
	}
}

func TestChannelUplinkSNRShape(t *testing.T) {
	c := DefaultChannel(NewONVOL60())
	rates := []float64{93.75, 187.5, 375, 750, 1500, 3000}

	// SNR decreases with bit rate for every tag (Fig. 12a trend).
	for id := 1; id <= 12; id++ {
		prev := math.Inf(1)
		for _, r := range rates {
			snr, err := c.UplinkSNRdB(id, r)
			if err != nil {
				t.Fatal(err)
			}
			if snr >= prev {
				t.Errorf("tag %d: SNR not decreasing at %v bps", id, r)
			}
			prev = snr
		}
	}

	// Tag 8 has the highest SNR at every rate; tag 8 at 3 kbps is
	// around the paper's 11.7 dB anchor.
	for _, r := range rates {
		s8, _ := c.UplinkSNRdB(8, r)
		for id := 1; id <= 12; id++ {
			if id == 8 {
				continue
			}
			s, _ := c.UplinkSNRdB(id, r)
			if s >= s8 {
				t.Errorf("tag %d SNR %.1f >= tag 8 SNR %.1f at %v bps", id, s, s8, r)
			}
		}
	}
	s8, _ := c.UplinkSNRdB(8, 3000)
	if math.Abs(s8-11.7) > 1.5 {
		t.Errorf("tag 8 SNR @3000 bps = %.1f dB, want ~11.7", s8)
	}
	// Tag 11 stays usable (>10 dB) at rates up to 750 bps.
	s11, _ := c.UplinkSNRdB(11, 750)
	if s11 < 10 {
		t.Errorf("tag 11 SNR @750 bps = %.1f dB, want > 10", s11)
	}
}

func TestChannelErrors(t *testing.T) {
	c := DefaultChannel(NewONVOL60())
	if _, err := c.UplinkSNRdB(1, 0); err == nil {
		t.Error("expected error for zero bit rate")
	}
	if _, err := c.UplinkSNRdB(99, 375); err == nil {
		t.Error("expected error for unknown tag")
	}
	if _, err := c.TagPeakVoltage(0); err == nil {
		t.Error("expected error for tag 0")
	}
	if _, err := c.BackscatterAmplitude(13); err == nil {
		t.Error("expected error for tag 13")
	}
}

func TestChannelNoiseRMS(t *testing.T) {
	c := DefaultChannel(NewONVOL60())
	n := c.NoiseRMS(500_000)
	if n <= 0 {
		t.Fatal("noise must be positive")
	}
	// Doubling the sample rate scales RMS by sqrt(2).
	n2 := c.NoiseRMS(1_000_000)
	if math.Abs(n2/n-math.Sqrt2) > 1e-9 {
		t.Errorf("noise scaling wrong: %v vs %v", n, n2)
	}
}

func TestBackscatterWeakerThanCarrier(t *testing.T) {
	c := DefaultChannel(NewONVOL60())
	for id := 1; id <= 12; id++ {
		bs, err := c.BackscatterAmplitude(id)
		if err != nil {
			t.Fatal(err)
		}
		if bs <= 0 {
			t.Errorf("tag %d: non-positive backscatter amplitude", id)
		}
		if bs > c.RXReferenceVolts {
			t.Errorf("tag %d: backscatter %.4f above reference amplitude", id, bs)
		}
	}
}

func TestDownlinkCarrierSwingMatchesHarvest(t *testing.T) {
	c := DefaultChannel(NewONVOL60())
	for id := 1; id <= 12; id++ {
		swing, err := c.DownlinkCarrierSwing(id)
		if err != nil {
			t.Fatal(err)
		}
		vp, err := c.TagPeakVoltage(id)
		if err != nil {
			t.Fatal(err)
		}
		if swing != vp {
			t.Errorf("tag %d: swing %v != Vp %v", id, swing, vp)
		}
	}
}
