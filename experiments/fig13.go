package experiments

import (
	"fmt"
	"math"

	"repro/arachnet"
	"repro/internal/phy"
)

// Fig13aCell is one (tag, DL rate) beacon loss measurement.
type Fig13aCell struct {
	Tag     int
	Rate    float64
	LossPct float64
}

// RunFig13a measures downlink beacon loss versus rate on the full
// event-level network: the tags demodulate real jittered PIE edges with
// their skewed, quantized 12 kHz timers, so the loss cliff at 1000 and
// 2000 bps emerges from the mechanisms the paper names (Fig. 13a).
func RunFig13a(seed uint64, slots int) ([]Fig13aCell, Table, error) {
	if slots <= 0 {
		slots = 1000
	}
	rates := phy.DLRates
	tags := []uint8{8, 4, 11}
	// Each rate is an independent network with its own derived seed, so
	// the rate sweeps run concurrently; per-rate results are merged back
	// in rate order.
	rateCells := make([][]Fig13aCell, len(rates))
	rateRows := make([][]string, len(rates))
	if err := runJobs("fig13a", len(rates), func(ri int) error {
		rate := rates[ri]
		row := []string{fmt.Sprintf("%g", rate)}
		cfg := arachnet.NetworkConfig{Seed: seed + uint64(rate)}
		for _, id := range tags {
			// Long periods keep the channel quiet; this experiment is
			// about the downlink only.
			cfg.Tags = append(cfg.Tags, arachnet.TagSpec{TID: id, Period: 32, StartCharged: true})
		}
		cfg.DLRate = rate
		// Short slots pack the beacons tighter; a beacon at 125 bps is
		// ~200 ms, so 500 ms slots are safe.
		cfg.SlotDuration = 500 * arachnet.Millisecond
		net, err := arachnet.NewNetwork(cfg)
		if err != nil {
			return err
		}
		net.Run(arachnet.Time(slots) * cfg.SlotDuration)
		st := net.Stats()
		for _, tp := range st.Tags {
			sent := net.Reader.SlotsRun
			lost := sent - int(tp.BeaconsSeen)
			if lost < 0 {
				lost = 0
			}
			rateCells[ri] = append(rateCells[ri], Fig13aCell{
				Tag: int(tp.TID), Rate: rate,
				LossPct: 100 * float64(lost) / float64(sent),
			})
			row = append(row, fmt.Sprintf("%d", lost))
		}
		rateRows[ri] = row
		return nil
	}); err != nil {
		return nil, Table{}, err
	}
	var cells []Fig13aCell
	tb := Table{
		Title:  fmt.Sprintf("Fig. 13(a): Downlink Beacon Loss (%d sent per setting)", slots),
		Header: []string{"Rate (bps)", "tag 8", "tag 4", "tag 11"},
	}
	for ri := range rates {
		cells = append(cells, rateCells[ri]...)
		tb.Rows = append(tb.Rows, rateRows[ri])
	}
	tb.Notes = append(tb.Notes,
		"paper: loss surges at 1000/2000 bps from 12 kHz timer imprecision and reader software jitter")
	return cells, tb, nil
}

// Fig13bRow is one tag's synchronization offset statistics relative to
// the reference tag 6.
type Fig13bRow struct {
	Tag      int
	MeanMs   float64
	MaxAbsMs float64
	Samples  int
}

// RunFig13b measures per-tag beacon decode completion offsets against
// tag 6 over a live network run (Fig. 13b: all below 5 ms).
func RunFig13b(seed uint64) ([]Fig13bRow, Table, error) {
	cfg := arachnet.DefaultNetworkConfig()
	cfg.Seed = seed
	net, err := arachnet.NewNetwork(cfg)
	if err != nil {
		return nil, Table{}, err
	}
	net.Run(120 * arachnet.Second)
	offsets := net.SyncOffsets(6)
	tb := Table{
		Title:  "Fig. 13(b): Beacon Time-Sync Offset vs Tag 6",
		Header: []string{"Tag", "mean (ms)", "max |offset| (ms)", "samples"},
	}
	var rows []Fig13bRow
	for id := 1; id <= 12; id++ {
		offs := offsets[uint8(id)]
		if len(offs) == 0 {
			continue
		}
		var sum, maxAbs float64
		for _, o := range offs {
			ms := o.Milliseconds()
			sum += ms
			if a := math.Abs(ms); a > maxAbs {
				maxAbs = a
			}
		}
		r := Fig13bRow{Tag: id, MeanMs: sum / float64(len(offs)), MaxAbsMs: maxAbs, Samples: len(offs)}
		rows = append(rows, r)
		tb.AddRow(fmt.Sprintf("%d", id), f3(r.MeanMs), f3(r.MaxAbsMs), fmt.Sprintf("%d", r.Samples))
	}
	tb.Notes = append(tb.Notes, "paper: all tags synchronized within 5.0 ms of the reference")
	return rows, tb, nil
}
