package mcu

// Meter accumulates charge (ampere-seconds) and residency time per
// operating mode, from which the Table 2 current and power averages are
// derived.
type Meter struct {
	ChargeAs [3]float64 // indexed by Mode
	Seconds  [3]float64
}

func (p *Meter) add(m Mode, coulombs float64) { p.ChargeAs[m] += coulombs }
func (p *Meter) addTime(m Mode, s float64)    { p.Seconds[m] += s }

// AverageAmps returns the mean current in the given mode over its
// residency time, or 0 if the mode was never entered.
func (p Meter) AverageAmps(m Mode) float64 {
	if p.Seconds[m] <= 0 {
		return 0
	}
	return p.ChargeAs[m] / p.Seconds[m]
}

// AveragePowerWatts returns the mean power in the mode at the given
// supply voltage.
func (p Meter) AveragePowerWatts(m Mode, supplyVolts float64) float64 {
	return p.AverageAmps(m) * supplyVolts
}

// TotalCharge returns the total charge drawn across all modes.
func (p Meter) TotalCharge() float64 {
	return p.ChargeAs[ModeIdle] + p.ChargeAs[ModeRX] + p.ChargeAs[ModeTX]
}
