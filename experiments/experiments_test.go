package experiments

import (
	"math"
	"sort"
	"strings"
	"testing"
)

// median returns the middle element of (a copy of) xs.
func median(xs []int) int {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]int(nil), xs...)
	sort.Ints(cp)
	return cp[len(cp)/2]
}

func TestTableRendering(t *testing.T) {
	tb := Table{Title: "T", Header: []string{"a", "bb"}, Notes: []string{"n"}}
	tb.AddRow("1", "2")
	s := tb.String()
	for _, want := range []string{"== T ==", "a", "bb", "note: n"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func TestHelpers(t *testing.T) {
	if median(nil) != 0 {
		t.Error("median(nil)")
	}
	if median([]int{3, 1, 2}) != 2 {
		t.Error("median")
	}
}

func TestTable1(t *testing.T) {
	res, tb, err := RunTable1()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Grid) != 4 {
		t.Fatalf("grid rows %d", len(res.Grid))
	}
	// Full utilization: every slot column has exactly one T.
	for s := 0; s < 8; s++ {
		n := 0
		for _, row := range res.Grid {
			if row[s] == "T" {
				n++
			}
		}
		if n != 1 {
			t.Errorf("slot %d has %d transmitters", s, n)
		}
	}
	if len(tb.Rows) != 4 {
		t.Error("table rows")
	}
}

func TestTable2ShapesMatchPaper(t *testing.T) {
	rows, _, err := RunTable2(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		tol := r.PaperMicrowatt * 0.15
		if math.Abs(r.TotalMicrowatt-r.PaperMicrowatt) > tol {
			t.Errorf("%s: %.1f uW vs paper %.1f", r.Mode, r.TotalMicrowatt, r.PaperMicrowatt)
		}
	}
}

func TestTable3(t *testing.T) {
	pats, tb := RunTable3()
	if len(pats) != 9 {
		t.Fatalf("%d patterns", len(pats))
	}
	if len(tb.Rows) != 6 { // 4 period rows + tags + util
		t.Errorf("%d table rows", len(tb.Rows))
	}
}

func TestFig11a(t *testing.T) {
	rows, _, err := RunFig11a()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if !r.Passes {
			t.Errorf("tag %d does not activate at 8 stages", r.Tag)
		}
		// Monotone in stages.
		if !(r.Vdd[2] < r.Vdd[4] && r.Vdd[4] < r.Vdd[6] && r.Vdd[6] < r.Vdd[8]) {
			t.Errorf("tag %d voltage not monotone in stages: %v", r.Tag, r.Vdd)
		}
	}
}

func TestFig11b(t *testing.T) {
	rows, _, err := RunFig11b()
	if err != nil {
		t.Fatal(err)
	}
	var minT, maxT = math.Inf(1), 0.0
	for _, r := range rows {
		if r.ChargeSeconds <= 0 || r.NetPowerMicrowatt <= 0 {
			t.Errorf("tag %d: degenerate charge data %+v", r.Tag, r)
		}
		if r.RechargeSeconds >= r.ChargeSeconds {
			t.Errorf("tag %d: recharge (%v) not faster than full charge (%v)",
				r.Tag, r.RechargeSeconds, r.ChargeSeconds)
		}
		minT = math.Min(minT, r.ChargeSeconds)
		maxT = math.Max(maxT, r.ChargeSeconds)
	}
	// Paper range 4.5-56.2 s; require the same order of spread.
	if minT > 6 || maxT < 40 || maxT > 90 {
		t.Errorf("charge range [%.1f, %.1f] s off the paper's 4.5-56.2", minT, maxT)
	}
}

func TestFig12a(t *testing.T) {
	cells, _, err := RunFig12a(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 18 {
		t.Fatalf("%d cells", len(cells))
	}
	for _, c := range cells {
		// The PSD measurement must track the link budget within a few
		// dB (it is the same quantity measured two ways).
		if math.Abs(c.MeasuredSNRdB-c.SNRdB) > 4 {
			t.Errorf("tag %d @%g bps: measured %.1f vs budget %.1f dB",
				c.Tag, c.Rate, c.MeasuredSNRdB, c.SNRdB)
		}
	}
}

func TestFig12b(t *testing.T) {
	cells, _, err := RunFig12b(1, 300) // reduced count keeps the test fast
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if c.LossPct > 2.0 {
			t.Errorf("tag %d @%g bps: loss %.2f%% far above the paper's 0.5%% bound",
				c.Tag, c.Rate, c.LossPct)
		}
	}
}

func TestFig13a(t *testing.T) {
	cells, _, err := RunFig13a(1, 200)
	if err != nil {
		t.Fatal(err)
	}
	byRate := map[float64]float64{}
	for _, c := range cells {
		byRate[c.Rate] += c.LossPct
	}
	if byRate[250] > 5 {
		t.Errorf("loss at 250 bps = %.1f%%, want ~0", byRate[250]/3)
	}
	if byRate[2000] < 3*byRate[250]+10 {
		t.Errorf("no cliff: 2000 bps %.1f%% vs 250 bps %.1f%%", byRate[2000]/3, byRate[250]/3)
	}
}

func TestFig13b(t *testing.T) {
	rows, _, err := RunFig13b(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 11 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.MaxAbsMs >= 5.0 {
			t.Errorf("tag %d max offset %.2f ms >= 5 ms", r.Tag, r.MaxAbsMs)
		}
	}
}

func TestFig14(t *testing.T) {
	res, _, err := RunFig14(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stage1MedianMs < 70 || res.Stage1MedianMs > 130 {
		t.Errorf("stage 1 median %.1f ms", res.Stage1MedianMs)
	}
	if res.Stage2P99Ms > 300 {
		t.Errorf("stage 2 p99 %.1f ms (paper: 281.9)", res.Stage2P99Ms)
	}
	if res.Stage2MedianMs < 190 {
		t.Errorf("stage 2 median %.1f ms implausibly fast", res.Stage2MedianMs)
	}
}

func TestFig15Shapes(t *testing.T) {
	rowsA, _, err := RunFig15a(9)
	if err != nil {
		t.Fatal(err)
	}
	if len(rowsA) != 5 {
		t.Fatalf("%d rows", len(rowsA))
	}
	// Monotone growth from c1 to c5 overall (allow local noise but the
	// endpoints must be far apart).
	if rowsA[4].MedianSlots < 4*rowsA[0].MedianSlots {
		t.Errorf("c5 median %d not >> c1 median %d", rowsA[4].MedianSlots, rowsA[0].MedianSlots)
	}
	rowsB, _, err := RunFig15b(9)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rowsB {
		if math.Abs(r.Utilization-0.75) > 1e-9 {
			t.Errorf("%s: U = %v in the fixed-U sweep", r.Pattern, r.Utilization)
		}
		// At fixed utilization the medians stay well below c5's.
		if r.MedianSlots > rowsA[4].MedianSlots {
			t.Errorf("%s median %d exceeds c5's %d", r.Pattern, r.MedianSlots, rowsA[4].MedianSlots)
		}
	}
}

func TestFig16Anchors(t *testing.T) {
	res, _, err := RunFig16(1, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgNonEmptyRatio < 0.72 || res.AvgNonEmptyRatio > 0.86 {
		t.Errorf("non-empty %.3f, paper 0.812", res.AvgNonEmptyRatio)
	}
	if res.AvgCollisionRatio > 0.12 {
		t.Errorf("collision %.3f, paper 0.056", res.AvgCollisionRatio)
	}
	if len(res.NonEmpty) != 100 || len(res.Collision) != 100 {
		t.Errorf("series lengths %d/%d", len(res.NonEmpty), len(res.Collision))
	}
	// The windowed series hovers near (and sometimes touches) the
	// bound, like the paper's plot.
	near := 0
	for _, v := range res.NonEmpty {
		if v > res.TheoreticalBound-0.1 {
			near++
		}
	}
	if near < 30 {
		t.Errorf("windowed non-empty rarely near the bound (%d/100)", near)
	}
}

func TestFig17Monotone(t *testing.T) {
	points, _, err := RunFig17()
	if err != nil {
		t.Fatal(err)
	}
	byTag := map[string][]Fig17Point{}
	for _, p := range points {
		byTag[p.Tag] = append(byTag[p.Tag], p)
	}
	if len(byTag) != 3 {
		t.Fatalf("%d tags", len(byTag))
	}
	for tag, ps := range byTag {
		for i := 1; i < len(ps); i++ {
			if ps[i].Volts <= ps[i-1].Volts {
				t.Errorf("tag %s voltage not monotone at %v cm", tag, ps[i].DisplacementCm)
			}
		}
	}
}

func TestFig19Shapes(t *testing.T) {
	res, _, err := RunFig19(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerTag) != 12 {
		t.Fatalf("%d tags", len(res.PerTag))
	}
	// The shape contract: most transmissions collide, fast tags
	// dominate the channel, per-tag success is poor across the board.
	if res.CollisionFreePct > 50 {
		t.Errorf("ALOHA too healthy: %.1f%% collision-free", res.CollisionFreePct)
	}
	if res.PerTag[7].Total < 8000 {
		t.Errorf("fast tag 8 transmitted only %d times", res.PerTag[7].Total)
	}
	var maxTotal, minTotal = 0, 1 << 30
	for _, st := range res.PerTag {
		if st.Total > maxTotal {
			maxTotal = st.Total
		}
		if st.Total < minTotal {
			minTotal = st.Total
		}
	}
	if maxTotal < 5*minTotal {
		t.Errorf("no access imbalance: %d vs %d", maxTotal, minTotal)
	}
}

func TestAblations(t *testing.T) {
	// Vanilla vs distributed: vanilla must collide far more under loss.
	tb, err := RunAblationVanillaVsDistributed(1, 5000, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatal("rows")
	}
	// Beacon-loss timer: disabling it must not reduce collisions.
	if _, err := RunAblationBeaconLossTimer(1, 5000, 0.01); err != nil {
		t.Fatal(err)
	}
	// EMPTY gate.
	if _, err := RunAblationEmptyGate(4); err != nil {
		t.Fatal(err)
	}
	// Future-collision avoidance.
	tb, err = RunAblationFutureCollision(4)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tb.String(), "with reader veto") {
		t.Error("missing veto row")
	}
	// NACK threshold sweep.
	if _, err := RunAblationNackThreshold(1, 5000); err != nil {
		t.Fatal(err)
	}
	// Interrupt-driven power claim.
	s := RunAblationInterruptDriven().String()
	if !strings.Contains(s, "%") {
		t.Error("missing saving percentage")
	}
}

func TestChargeTimes(t *testing.T) {
	ct, err := ChargeTimes()
	if err != nil {
		t.Fatal(err)
	}
	if len(ct) != 12 {
		t.Fatalf("%d charge times", len(ct))
	}
	// Tag 8 fastest, tag 11 slowest (deployment geometry).
	for i, v := range ct {
		if v < ct[7] {
			t.Errorf("tag %d charges faster than tag 8", i+1)
		}
		if v > ct[10] {
			t.Errorf("tag %d charges slower than tag 11", i+1)
		}
	}
}

func TestAlohaVsDistributedTable(t *testing.T) {
	tb, err := RunAlohaVsDistributed(1, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Error("rows")
	}
}

func TestTableWriteCSV(t *testing.T) {
	tb := Table{Title: "T", Header: []string{"a", "b"}, Notes: []string{"n1"}}
	tb.AddRow("1", "x,y")
	var sb strings.Builder
	if err := tb.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"a,b", `"x,y"`, "#,n1"} {
		if !strings.Contains(out, want) {
			t.Errorf("CSV missing %q:\n%s", want, out)
		}
	}
}

func TestSparkline(t *testing.T) {
	if Sparkline(nil, 10) != "" || Sparkline([]float64{1}, 0) != "" {
		t.Error("degenerate inputs should render empty")
	}
	s := Sparkline([]float64{0, 1, 2, 3}, 4)
	if len([]rune(s)) != 4 {
		t.Errorf("width %d", len([]rune(s)))
	}
	if []rune(s)[0] == []rune(s)[3] {
		t.Error("min and max should render differently")
	}
	// Flat series renders uniformly without panicking.
	flat := Sparkline([]float64{5, 5, 5}, 3)
	r := []rune(flat)
	if r[0] != r[1] || r[1] != r[2] {
		t.Error("flat series should be uniform")
	}
	// Downsampling preserves width.
	long := make([]float64, 1000)
	for i := range long {
		long[i] = float64(i % 17)
	}
	if got := len([]rune(Sparkline(long, 50))); got != 50 {
		t.Errorf("downsampled width %d", got)
	}
}

func TestHBar(t *testing.T) {
	b := HBar("x", 5, 10, 20)
	if !strings.Contains(b, "x") || !strings.Contains(b, "█") || !strings.Contains(b, "·") {
		t.Errorf("bar = %q", b)
	}
	full := HBar("y", 10, 10, 10)
	if strings.Contains(full, "·") {
		t.Errorf("full bar contains empty cells: %q", full)
	}
	if zero := HBar("z", 0, 10, 5); strings.Contains(zero, "█") {
		t.Errorf("zero bar has fill: %q", zero)
	}
	if over := HBar("w", 20, 10, 5); strings.Count(over, "█") != 5 {
		t.Errorf("overflow not clamped: %q", over)
	}
}
