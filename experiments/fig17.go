package experiments

import (
	"fmt"

	"repro/internal/strain"
)

// Fig17Point is one (displacement, tag) voltage sample.
type Fig17Point struct {
	DisplacementCm float64
	Tag            string
	Volts          float64
}

// RunFig17 sweeps the monitored metal's end displacement from -10 cm to
// +10 cm and reports the three strain tags' amplified bridge voltages
// (Fig. 17: clear monotone correlation).
func RunFig17() ([]Fig17Point, Table, error) {
	// Three gauges bonded at slightly different positions: small
	// sensitivity spread, as visible in the paper's three curves.
	sensors := map[string]*strain.Sensor{}
	for name, gainScale := range map[string]float64{"A": 1.00, "B": 0.93, "C": 1.07} {
		s := strain.NewSensor()
		s.Amp.Gain *= gainScale
		sensors[name] = s
	}
	var points []Fig17Point
	tb := Table{
		Title:  "Fig. 17: Strain Voltage vs Displacement",
		Header: []string{"d (cm)", "tag A (V)", "tag B (V)", "tag C (V)"},
	}
	for d := -10.0; d <= 10.01; d += 2 {
		row := []string{f1(d)}
		for _, name := range []string{"A", "B", "C"} {
			v, err := sensors[name].VoltageAt(d / 100)
			if err != nil {
				return nil, Table{}, fmt.Errorf("tag %s at %v cm: %w", name, d, err)
			}
			points = append(points, Fig17Point{
				DisplacementCm: d, Tag: name, Volts: v,
			})
			row = append(row, f3(v))
		}
		tb.Rows = append(tb.Rows, row)
	}
	tb.Notes = append(tb.Notes, "paper: voltage correlates monotonically with displacement across ~0.5-1.5 V")
	return points, tb, nil
}
