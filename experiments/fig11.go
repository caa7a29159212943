package experiments

import (
	"fmt"

	"repro/internal/biw"
	"repro/internal/energy"
)

// Fig11aRow is one tag's amplified voltage across multiplier stages.
type Fig11aRow struct {
	Tag    int
	Vdd    map[int]float64 // stages -> volts
	Passes bool            // clears the 2.3 V threshold at 8 stages
}

// RunFig11a sweeps the multiplier stage count (2, 4, 6, 8) for all 12
// deployed tags (Fig. 11a).
func RunFig11a() ([]Fig11aRow, Table, error) {
	dep := biw.NewONVOL60()
	ch := biw.DefaultChannel(dep)
	stages := []int{2, 4, 6, 8}
	var rows []Fig11aRow
	tb := Table{
		Title:  "Fig. 11(a): Amplified Voltage vs Multiplier Stages",
		Header: []string{"Tag", "2 stages (4x)", "4 stages (8x)", "6 stages (12x)", "8 stages (16x)", ">= 2.3 V"},
	}
	for id := 1; id <= dep.NumTags(); id++ {
		vp, err := ch.TagPeakVoltage(id)
		if err != nil {
			return nil, Table{}, err
		}
		row := Fig11aRow{Tag: id, Vdd: map[int]float64{}}
		cells := []string{fmt.Sprintf("%d", id)}
		for _, n := range stages {
			v := energy.NewMultiplier(n).OpenCircuitVoltage(vp)
			row.Vdd[n] = v
			cells = append(cells, f2(v))
		}
		row.Passes = row.Vdd[8] >= 2.3
		cells = append(cells, fmt.Sprintf("%v", row.Passes))
		rows = append(rows, row)
		tb.Rows = append(tb.Rows, cells)
	}
	tb.Notes = append(tb.Notes,
		"paper anchors: tag 4 ~4.74 V, tag 11 ~2.70 V at 16x; all tags activate at 8 stages")
	return rows, tb, nil
}

// Fig11bRow is one tag's charging behaviour.
type Fig11bRow struct {
	Tag               int
	ChargeSeconds     float64
	RechargeSeconds   float64 // LTH -> HTH
	NetPowerMicrowatt float64
}

// RunFig11b computes charging time from 0 V to the 2.3 V activation
// threshold for every tag, and the implied net charging power
// (Fig. 11b: 4.5-56.2 s, 587.8-47.1 uW in the paper).
func RunFig11b() ([]Fig11bRow, Table, error) {
	dep := biw.NewONVOL60()
	ch := biw.DefaultChannel(dep)
	var rows []Fig11bRow
	tb := Table{
		Title:  "Fig. 11(b): Charging Time vs Amplified Voltage (8 stages)",
		Header: []string{"Tag", "Vdd (V)", "t_charge (s)", "t_recharge (s)", "P_net (uW)"},
	}
	for id := 1; id <= dep.NumTags(); id++ {
		h := energy.NewHarvester(8)
		vp, err := ch.TagPeakVoltage(id)
		if err != nil {
			return nil, Table{}, err
		}
		vdd := h.Multiplier.OpenCircuitVoltage(vp)
		tFull, err := h.ChargingTime(vp, 0, h.Cutoff.HighThreshold())
		if err != nil {
			return nil, Table{}, fmt.Errorf("tag %d: %w", id, err)
		}
		tRe, err := h.ChargingTime(vp, h.Cutoff.LowThreshold(), h.Cutoff.HighThreshold())
		if err != nil {
			return nil, Table{}, err
		}
		p := h.NetChargingPower(0, h.Cutoff.HighThreshold(), tFull) * 1e6
		rows = append(rows, Fig11bRow{
			Tag: id, ChargeSeconds: tFull,
			RechargeSeconds: tRe, NetPowerMicrowatt: p,
		})
		tb.AddRow(fmt.Sprintf("%d", id), f2(vdd), f1(tFull), f1(tRe), f1(p))
	}
	tb.Notes = append(tb.Notes, "paper range: 4.5-56.2 s full charge; 587.8-47.1 uW net power")
	return rows, tb, nil
}

// ChargeTimes returns the per-tag full-charge seconds in TID order —
// the input the ALOHA experiment and the network share.
func ChargeTimes() ([]float64, error) {
	rows, _, err := RunFig11b()
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(rows))
	for i, r := range rows {
		out[i] = r.ChargeSeconds
	}
	return out, nil
}
