package dsp

import "fmt"

// DCBlocker removes the DC component (the un-modulated carrier
// leakage) with a single-pole high-pass: y[n] = x[n] - x[n-1] + a*y[n-1].
type DCBlocker struct {
	A       float64
	prevIn  float64
	prevOut float64
	primed  bool
}

// NewDCBlocker returns a DC blocker with pole a (0.9..0.999 typical).
func NewDCBlocker(a float64) *DCBlocker { return &DCBlocker{A: a} }

// ProcessSample pushes one sample.
func (d *DCBlocker) ProcessSample(x float64) float64 {
	if !d.primed {
		d.prevIn = x
		d.primed = true
	}
	y := x - d.prevIn + d.A*d.prevOut
	d.prevIn = x
	d.prevOut = y
	return y
}

// Process filters a block.
func (d *DCBlocker) Process(block []float64) []float64 {
	out := make([]float64, len(block))
	for i, x := range block {
		out[i] = d.ProcessSample(x)
	}
	return out
}

// SchmittTrigger converts an analog waveform into binary levels with
// hysteresis — the reader-side equivalent of the tag's comparator.
type SchmittTrigger struct {
	High, Low float64
	state     bool
}

// NewSchmittTrigger returns a trigger with the given thresholds.
func NewSchmittTrigger(low, high float64) (*SchmittTrigger, error) {
	if high <= low {
		return nil, fmt.Errorf("dsp: schmitt high %v <= low %v", high, low)
	}
	return &SchmittTrigger{High: high, Low: low}, nil
}

// ProcessSample returns the binary state after seeing x.
func (s *SchmittTrigger) ProcessSample(x float64) bool {
	if x >= s.High {
		s.state = true
	} else if x <= s.Low {
		s.state = false
	}
	return s.state
}
