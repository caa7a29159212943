package experiments

import (
	"fmt"

	"repro/internal/dsp"
	"repro/internal/phy"
	"repro/internal/pzt"
	"repro/internal/sim"
)

// Downlink modulation study: the paper's 'FSK in, OOK out' scheme
// (Sec. 4.1) versus conventional amplitude keying. With plain OOK the
// reader's PZT keeps ringing after each voltage cutoff (Fig. 2 /
// RingTimeConstant), smearing the PIE low chips; transmitting an
// off-resonant tone instead keeps the transducer driven so there is no
// tail, at the cost of a small envelope leak. This experiment measures
// beacon decode failure for both schemes across DL rates — an ablation
// for the design choice.

// DLSchemeCell is one (scheme, rate) decode-failure measurement.
type DLSchemeCell struct {
	Scheme  string
	Rate    float64
	LossPct float64
}

// RunDLSchemeStudy decodes `beacons` beacons per scheme and rate
// through the tag's envelope front end (Schmitt trigger + pulse
// intervals).
func RunDLSchemeStudy(seed uint64, beacons int) ([]DLSchemeCell, Table, error) {
	if beacons <= 0 {
		beacons = 500
	}
	rates := []float64{250, 500, 1000, 2000}
	tr := pzt.New()
	schemes := []struct {
		name    string
		lowLeak float64
		ringTau float64
	}{
		// Conventional OOK: carrier fully off on low chips, but the
		// transducer rings down with its natural time constant.
		{"OOK (ring tail)", 0.0, tr.RingTimeConstant()},
		// FSK-in-OOK-out: the off-resonant tone leaks a little
		// envelope but the PZT never rings (drive is continuous).
		{"FSK-in-OOK-out", tr.FSKLowLeakage(8000), tr.RingTimeConstant() / 20},
	}
	rng := sim.NewRand(seed)
	// Fork the per-trial streams in the serial (rate, scheme) order, then
	// decode the independent beacon batches concurrently.
	type job struct {
		rate    float64
		lowLeak float64
		ringTau float64
		name    string
		rng     *sim.Rand
		lost    int
	}
	var jobs []job
	for _, rate := range rates {
		for _, sch := range schemes {
			jobs = append(jobs, job{rate: rate, lowLeak: sch.lowLeak,
				ringTau: sch.ringTau, name: sch.name,
				rng: rng.Fork(uint64(rate) + uint64(len(sch.name)))})
		}
	}
	if err := runJobs("dl-scheme", len(jobs), func(i int) error {
		lost, err := countDLLosses(jobs[i].rate, jobs[i].lowLeak, jobs[i].ringTau, beacons, jobs[i].rng)
		jobs[i].lost = lost
		return err
	}); err != nil {
		return nil, Table{}, err
	}
	var cells []DLSchemeCell
	tb := Table{
		Title:  fmt.Sprintf("DL Scheme Study: beacon loss, %d sent per setting", beacons),
		Header: []string{"Rate (bps)", schemes[0].name, schemes[1].name},
	}
	for i, rate := range rates {
		row := []string{fmt.Sprintf("%g", rate)}
		for j := range schemes {
			jb := jobs[i*len(schemes)+j]
			cells = append(cells, DLSchemeCell{
				Scheme: jb.name, Rate: jb.rate,
				LossPct: 100 * float64(jb.lost) / float64(beacons),
			})
			row = append(row, fmt.Sprintf("%d", jb.lost))
		}
		tb.Rows = append(tb.Rows, row)
	}
	tb.Notes = append(tb.Notes,
		"Sec. 4.1: driving low symbols as off-resonant tones removes the ring tail that smears PIE chips at high rates")
	return cells, tb, nil
}

// countDLLosses synthesizes tag-side beacon envelopes and decodes them
// via Schmitt trigger + pulse-interval classification.
func countDLLosses(rate, lowLeak, ringTau float64, beacons int, rng *sim.Rand) (int, error) {
	const fs = 48_000.0
	trig, err := dsp.NewSchmittTrigger(0.25, 0.45)
	if err != nil {
		return 0, err
	}
	p := dsp.DLSynthParams{
		ChipSeconds:     1 / rate,
		HighVolts:       1.0,
		LowLeak:         lowLeak,
		RingTau:         ringTau,
		NoiseRMS:        0.02,
		ReaderJitterSec: 0.0003,
	}
	var highs []float64
	var chips phy.Bits
	lost := 0
	for i := 0; i < beacons; i++ {
		cmd := phy.Command(rng.Intn(16))
		frame := (phy.Beacon{Cmd: cmd}).Marshal()
		// Trailing low chip lets the last pulse terminate cleanly.
		chips = append(phy.AppendPIE(chips[:0], uint64(frame), phy.DLFrameBits), 0, 0)
		// Comparator output -> pulse intervals in chips.
		highs = dsp.DLPulses(highs[:0], chips, fs, p, trig, rng)
		word, err := phy.PIEDecodeIntervals(highs)
		if err != nil || len(highs) != phy.DLFrameBits {
			lost++
			continue
		}
		beacon, err := phy.UnmarshalDL(uint16(word))
		if err != nil || beacon.Cmd != cmd {
			lost++
		}
	}
	return lost, nil
}
