package dsp

// Fallbacks returns how many packets the decoder sent to the exact
// kernel because a chip was too close to call.
func (d *ULDecoder) Fallbacks() int { return d.fallbacks }
