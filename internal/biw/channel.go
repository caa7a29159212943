package biw

import (
	"fmt"
	"math"
)

// Channel turns a Deployment into the link-budget quantities the rest
// of the system consumes: the open-circuit voltage each tag's PZT sees
// (energy harvesting), the backscatter signal amplitude back at the
// reader RX chain (uplink), and the noise against which uplink SNR is
// measured.
//
// The reader drive is intentionally small — an 18 W class amplifier
// with 36 V peak output (72 Vpp) — to satisfy electrical-safety limits
// for human-accessible spaces (Sec. 3.1). That restriction is the root
// of the paper's Challenge 1.
//
// Calibration note (uplink). The reader measures SNR from the power
// spectral density around the backscatter frequency (Sec. 6.3). In the
// real system that measurement is clutter-limited: the reflected signal
// and the spectral shelf underneath it are both driven by the same
// structural vibration, so measured SNR varies far less across tags
// than the raw fourth-power backscatter link budget would suggest
// (tag 8 reports 11.7 dB at 3 kbps while the much farther tag 11 still
// reports 18.1 dB at 750 bps). We reproduce that by compressing the
// path-loss dependence of the *measured* backscatter amplitude with the
// empirical exponent ClutterCompression, while keeping the full
// physical loss for energy harvesting.
type Channel struct {
	Deployment *Deployment

	// DrivePeakVolts is the reader TX PZT drive amplitude (V peak).
	DrivePeakVolts float64
	// RXReferenceVolts is the backscatter amplitude (V) observed at
	// the reader ADC for the reference (lowest-loss) tag.
	RXReferenceVolts float64
	// ClutterCompression maps one-way path-loss deltas (dB) to measured
	// SNR penalty (dB/dB); 0.35 calibrated against Fig. 12(a).
	ClutterCompression float64
	// NoiseDensityV2PerHz is the reader-side noise power spectral density
	// (V^2/Hz) in the band around the carrier.
	NoiseDensityV2PerHz float64
	// GainOffsetDB, when set, adds a time-varying per-tag path-loss
	// offset (dB, positive = extra loss) on top of the deployment's
	// static loss — the fault-injection layer drives transient fades
	// through this hook. It applies to harvesting, backscatter and
	// downlink alike (the fade is a property of the acoustic path).
	GainOffsetDB func(id int) float64
	// referenceLossDB caches the lowest tag path loss.
	referenceLossDB float64
}

// DefaultChannel wraps the deployment with the paper's reader settings.
func DefaultChannel(d *Deployment) *Channel {
	c := &Channel{
		Deployment:          d,
		DrivePeakVolts:      36.0,
		RXReferenceVolts:    0.050,
		ClutterCompression:  0.35,
		NoiseDensityV2PerHz: 3.52e-9,
	}
	best := math.Inf(1)
	for id := 1; id <= d.NumTags(); id++ {
		if l, err := d.TagLossDB(id); err == nil && l < best {
			best = l
		}
	}
	c.referenceLossDB = best
	return c
}

// tagLossDB resolves a tag's effective path loss: static deployment
// loss plus the dynamic fault offset, if any.
func (c *Channel) tagLossDB(id int) (float64, error) {
	loss, err := c.Deployment.TagLossDB(id)
	if err != nil {
		return 0, err
	}
	if c.GainOffsetDB != nil {
		loss += c.GainOffsetDB(id)
	}
	return loss, nil
}

// TagPeakVoltage returns the open-circuit peak voltage Vp on the tag's
// PZT while the reader transmits the carrier. This is the input to the
// multi-stage voltage multiplier (Sec. 3.2) and uses the full physical
// path loss.
func (c *Channel) TagPeakVoltage(id int) (float64, error) {
	loss, err := c.tagLossDB(id)
	if err != nil {
		return 0, err
	}
	return c.DrivePeakVolts * math.Pow(10, -loss/20), nil
}

// BackscatterAmplitude returns the peak amplitude (V, at the reader
// ADC) of tag id's backscatter signal, using the clutter-compressed
// calibration described on Channel.
func (c *Channel) BackscatterAmplitude(id int) (float64, error) {
	loss, err := c.tagLossDB(id)
	if err != nil {
		return 0, err
	}
	deltaDB := (loss - c.referenceLossDB) * c.ClutterCompression
	return c.RXReferenceVolts * math.Pow(10, -deltaDB/20), nil
}

// UplinkSNRdB returns the reader-side PSD-measured SNR (dB) of tag id's
// backscatter when modulated at the given raw bit rate. Signal power is
// the OOK sideband power; noise is the density integrated over the FM0
// occupied bandwidth (about twice the raw bit rate), which is why SNR
// falls as the bit rate rises — the trend of Fig. 12(a).
func (c *Channel) UplinkSNRdB(id int, bitRateBPS float64) (float64, error) {
	if bitRateBPS <= 0 {
		return 0, fmt.Errorf("biw: non-positive bit rate %v", bitRateBPS)
	}
	v, err := c.BackscatterAmplitude(id)
	if err != nil {
		return 0, err
	}
	sigPower := (v / 2) * (v / 2) / 2 // OOK sideband, sine power
	noisePower := c.NoiseDensityV2PerHz * 2 * bitRateBPS
	return 10 * math.Log10(sigPower/noisePower), nil
}

// NoiseRMS returns the reader-side RMS noise voltage for a simulation
// sampled at sampleRateHz (noise density integrated to Nyquist).
func (c *Channel) NoiseRMS(sampleRateHz float64) float64 {
	return math.Sqrt(c.NoiseDensityV2PerHz * sampleRateHz / 2)
}

// DownlinkCarrierSwing returns the peak voltage swing the tag's
// envelope detector sees when the reader keys the carrier for PIE
// downlink symbols. It equals the harvested carrier amplitude.
func (c *Channel) DownlinkCarrierSwing(id int) (float64, error) {
	return c.TagPeakVoltage(id)
}
