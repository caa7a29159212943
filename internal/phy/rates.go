package phy

// Bit-rate plumbing. The tag times everything with its 12 kHz
// low-frequency clock (Sec. 3.2); raw chip rates are derived by integer
// clock division, which is why the evaluation's nominal rates are
// 12000/128 = 93.75 bps up through 12000/4 = 3000 bps (Sec. 6.3).

// MCUClockHz is the tag's low-power clock.
const MCUClockHz = 12_000.0

// Default raw chip rates (Sec. 4.1).
const (
	DefaultULRate = 375.0 // bps, divider 32
	DefaultDLRate = 250.0 // bps, divider 48
)

// ULRates are the uplink rates evaluated in Fig. 12, with their clock
// division factors.
var ULRates = []struct {
	BitsPerSec float64
	Divider    int
}{
	{93.75, 128},
	{187.5, 64},
	{375, 32},
	{750, 16},
	{1500, 8},
	{3000, 4},
}

// DLRates are the downlink rates evaluated in Fig. 13(a).
var DLRates = []float64{125, 250, 500, 1000, 2000}
