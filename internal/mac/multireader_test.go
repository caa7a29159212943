package mac

import "testing"

func zonesOf(n int, pt Pattern) []Pattern {
	out := make([]Pattern, n)
	for i := range out {
		out[i] = pt
	}
	return out
}

func TestMultiReaderValidation(t *testing.T) {
	if _, err := NewMultiReaderSim(MultiReaderConfig{}); err == nil {
		t.Error("no zones accepted")
	}
	if _, err := NewMultiReaderSim(MultiReaderConfig{
		Zones: []Pattern{{Periods: []Period{3}}},
	}); err == nil {
		t.Error("invalid zone pattern accepted")
	}
	if _, err := NewMultiReaderSim(MultiReaderConfig{
		Zones: zonesOf(2, Table3Patterns()[8]), LeakProb: 1.5,
	}); err == nil {
		t.Error("leak probability > 1 accepted")
	}
}

func TestMultiReaderSingleZoneMatchesSlotSimScale(t *testing.T) {
	pt := Table3Patterns()[8] // c9
	m, err := NewMultiReaderSim(MultiReaderConfig{Zones: zonesOf(1, pt), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m.Run(10_000)
	// A lone zone at U=0.75 should deliver close to 0.75 per slot once
	// converged.
	if th := m.Throughput(); th < 0.70 || th > 0.76 {
		t.Errorf("single-zone throughput %.3f, want ~0.75", th)
	}
}

func TestMultiReaderScalesWithoutLeakage(t *testing.T) {
	pt := Table3Patterns()[8]
	th := make(map[int]float64)
	for _, k := range []int{1, 3} {
		m, err := NewMultiReaderSim(MultiReaderConfig{Zones: zonesOf(k, pt), Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		m.Run(10_000)
		th[k] = m.Throughput()
	}
	// Perfect isolation: aggregate throughput ~K-fold.
	if th[3] < 2.6*th[1] {
		t.Errorf("3 readers deliver %.3f vs 1 reader %.3f: no spatial gain", th[3], th[1])
	}
	// And beyond the single-reader 1.0 ceiling.
	if th[3] <= 1.0 {
		t.Errorf("aggregate %.3f never exceeded a single channel", th[3])
	}
}

func TestMultiReaderLeakageHurts(t *testing.T) {
	pt := Table3Patterns()[8]
	run := func(leak float64) float64 {
		m, err := NewMultiReaderSim(MultiReaderConfig{
			Zones: zonesOf(4, pt), LeakProb: leak, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		m.Run(10_000)
		return m.Throughput()
	}
	clean := run(0)
	leaky := run(0.2)
	if leaky >= clean {
		t.Errorf("leakage did not hurt: %.3f vs %.3f", leaky, clean)
	}
	if clean-leaky < 0.5 {
		t.Errorf("20%% leakage cost only %.3f packets/slot across 4 zones", clean-leaky)
	}
}

func TestMultiReaderPerZoneCounters(t *testing.T) {
	pt := Table3Patterns()[8]
	m, err := NewMultiReaderSim(MultiReaderConfig{Zones: zonesOf(2, pt), Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	m.Run(5000)
	if m.Slots() != 5000 {
		t.Errorf("slots = %d", m.Slots())
	}
	total := 0
	for zi := 0; zi < 2; zi++ {
		d := m.ZoneDelivered(zi)
		if d == 0 {
			t.Errorf("zone %d delivered nothing", zi)
		}
		total += d
	}
	if total != m.TotalDelivered() {
		t.Error("per-zone sums disagree with total")
	}
	if m.Throughput() <= 0 {
		t.Error("zero throughput")
	}
	var empty MultiReaderSim
	if empty.Throughput() != 0 {
		t.Error("unstepped sim should report 0 throughput")
	}
}
