package biw

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/pzt"
	"repro/internal/sim"
)

func TestPositionDistance(t *testing.T) {
	a := Position{0, 0, 0}
	b := Position{3, 4, 0}
	if d := a.Distance(b); d != 5 {
		t.Errorf("distance = %v, want 5", d)
	}
	if d := a.Distance(a); d != 0 {
		t.Errorf("self distance = %v", d)
	}
	if a.Distance(b) != b.Distance(a) {
		t.Error("distance not symmetric")
	}
}

func TestElementKindString(t *testing.T) {
	if KindPillar.String() != "pillar" {
		t.Errorf("KindPillar = %q", KindPillar.String())
	}
	if got := ElementKind(99).String(); got != "ElementKind(99)" {
		t.Errorf("unknown kind = %q", got)
	}
}

func newTestStructure() *Structure {
	s := NewStructure(2.0, 10.0)
	s.AddElement("a", KindFloorPanel, Position{0, 0, 0})
	s.AddElement("b", KindFloorPanel, Position{1, 0, 0})
	s.AddElement("c", KindPillar, Position{2, 0, 0})
	s.AddElement("d", KindBeam, Position{0, 5, 0})
	if err := s.Connect("a", "b", 1.0); err != nil {
		panic(err)
	}
	if err := s.Connect("b", "c", 3.0); err != nil {
		panic(err)
	}
	if err := s.Connect("a", "d", 0.0); err != nil {
		panic(err)
	}
	return s
}

func TestPathLossDirect(t *testing.T) {
	s := newTestStructure()
	loss, dist, err := s.PathLossDB("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	// coupling 10 + distance 1m * 2 dB/m + junction 1 = 13
	if math.Abs(loss-13) > 1e-9 {
		t.Errorf("loss = %v, want 13", loss)
	}
	if math.Abs(dist-1) > 1e-9 {
		t.Errorf("dist = %v, want 1", dist)
	}
}

func TestPathLossMultiHop(t *testing.T) {
	s := newTestStructure()
	loss, dist, err := s.PathLossDB("a", "c")
	if err != nil {
		t.Fatal(err)
	}
	// 10 + (1*2+1) + (1*2+3) = 18
	if math.Abs(loss-18) > 1e-9 {
		t.Errorf("loss = %v, want 18", loss)
	}
	if math.Abs(dist-2) > 1e-9 {
		t.Errorf("dist = %v, want 2", dist)
	}
}

func TestPathLossSameElement(t *testing.T) {
	s := newTestStructure()
	loss, dist, err := s.PathLossDB("a", "a")
	if err != nil {
		t.Fatal(err)
	}
	if loss != 10 || dist != 0 {
		t.Errorf("same-element: loss=%v dist=%v, want 10, 0", loss, dist)
	}
}

func TestPathLossSymmetric(t *testing.T) {
	s := newTestStructure()
	for _, pair := range [][2]string{{"a", "c"}, {"b", "d"}, {"c", "d"}} {
		l1, _, err1 := s.PathLossDB(pair[0], pair[1])
		l2, _, err2 := s.PathLossDB(pair[1], pair[0])
		if err1 != nil || err2 != nil {
			t.Fatalf("path errors: %v %v", err1, err2)
		}
		if math.Abs(l1-l2) > 1e-9 {
			t.Errorf("loss %s<->%s asymmetric: %v vs %v", pair[0], pair[1], l1, l2)
		}
	}
}

func TestPathLossPicksCheapestPath(t *testing.T) {
	s := NewStructure(1.0, 0.0)
	s.AddElement("a", KindFloorPanel, Position{0, 0, 0})
	s.AddElement("b", KindFloorPanel, Position{1, 0, 0})
	s.AddElement("c", KindFloorPanel, Position{2, 0, 0})
	// Direct a-c edge with a huge junction vs a-b-c with small ones.
	if err := s.Connect("a", "c", 20.0); err != nil {
		t.Fatal(err)
	}
	if err := s.Connect("a", "b", 0.5); err != nil {
		t.Fatal(err)
	}
	if err := s.Connect("b", "c", 0.5); err != nil {
		t.Fatal(err)
	}
	loss, _, err := s.PathLossDB("a", "c")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(loss-3) > 1e-9 { // 2m + 0.5 + 0.5
		t.Errorf("loss = %v, want 3 (via b)", loss)
	}
}

func TestPathLossErrors(t *testing.T) {
	s := newTestStructure()
	if _, _, err := s.PathLossDB("a", "nope"); err == nil {
		t.Error("expected error for unknown destination")
	}
	if _, _, err := s.PathLossDB("nope", "a"); err == nil {
		t.Error("expected error for unknown source")
	}
	if err := s.Connect("a", "nope", 1); err == nil {
		t.Error("expected error connecting unknown element")
	}
	// Disconnected element.
	s.AddElement("island", KindBeam, Position{9, 9, 9})
	if _, _, err := s.PathLossDB("a", "island"); err == nil {
		t.Error("expected error for disconnected element")
	}
}

// TestGain checks the amplitude gain the channel applies to the
// reader's drive: 10^(-loss/20) of the tag's full path loss.
func TestGain(t *testing.T) {
	d := NewONVOL60()
	c := DefaultChannel(d)
	for id := 1; id <= d.NumTags(); id++ {
		loss, err := d.TagLossDB(id)
		if err != nil {
			t.Fatal(err)
		}
		vp, err := c.TagPeakVoltage(id)
		if err != nil {
			t.Fatal(err)
		}
		if want := c.DrivePeakVolts * math.Pow(10, -loss/20); math.Abs(vp-want) > 1e-12 {
			t.Errorf("tag %d: Vp = %v, want %v", id, vp, want)
		}
	}
}

func TestPropagationDelay(t *testing.T) {
	s := newTestStructure()
	d, err := s.PropagationDelay("a", "c")
	if err != nil {
		t.Fatal(err)
	}
	want := 2.0 / SpeedOfSound
	if math.Abs(d-want) > 1e-12 {
		t.Errorf("delay = %v, want %v", d, want)
	}
}

func TestElementsSorted(t *testing.T) {
	s := newTestStructure()
	names := s.Elements()
	if len(names) != 4 {
		t.Fatalf("got %d elements", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("elements not sorted: %v", names)
		}
	}
}

// ResonantFrequencyHz is the mechanical resonant frequency of the
// reader-PZT / BiW system. All communication rides on this carrier; the
// 'FSK in OOK out' downlink scheme exploits the sharp response falloff
// away from resonance (Sec. 4.1).
const ResonantFrequencyHz = 90_000.0

// AmbientVibrationHz is the upper bound of the vehicle's own structural
// vibration spectrum (engine, road). It is more than two decades below
// the 90 kHz carrier, which is why driving does not disturb the link
// (Sec. 2.2 discussion).
const AmbientVibrationHz = 100.0

// ResonanceResponse returns the relative amplitude response (0..1) of
// the reader-PZT / BiW system at frequency f: the second-order
// resonance of the paper's transducer, which the FSK downlink reads
// through FSKLowLeakage.
func ResonanceResponse(fHz float64) float64 {
	tr := pzt.New()
	return tr.FSKLowLeakage(fHz - tr.ResonantHz)
}

func TestResonanceResponse(t *testing.T) {
	if r := ResonanceResponse(ResonantFrequencyHz); math.Abs(r-1) > 0.01 {
		t.Errorf("response at resonance = %v, want ~1", r)
	}
	// A few kHz off resonance the response must collapse (basis of the
	// 'FSK in OOK out' downlink).
	off := ResonanceResponse(ResonantFrequencyHz + 5000)
	if off > 0.3 {
		t.Errorf("off-resonance response = %v, want < 0.3", off)
	}
	// Ambient vehicle vibration band is invisible at the transducer.
	amb := ResonanceResponse(AmbientVibrationHz)
	if amb > 0.001 {
		t.Errorf("ambient response = %v, want ~0", amb)
	}
	if ResonanceResponse(0) != 0 || ResonanceResponse(-5) != 0 {
		t.Error("non-positive frequency should have zero response")
	}
}

func TestResonanceMonotoneAwayFromPeak(t *testing.T) {
	prev := ResonanceResponse(ResonantFrequencyHz)
	for df := 500.0; df <= 20000; df += 500 {
		r := ResonanceResponse(ResonantFrequencyHz + df)
		if r > prev+1e-9 {
			t.Fatalf("response not decreasing above resonance at +%v Hz", df)
		}
		prev = r
	}
}

// Property: adding an edge can never increase the minimum path loss.
func TestPathLossMonotoneUnderEdgeAddition(t *testing.T) {
	f := func(j1, j2 uint8) bool {
		s := NewStructure(1.0, 0.0)
		s.AddElement("a", KindFloorPanel, Position{0, 0, 0})
		s.AddElement("b", KindFloorPanel, Position{3, 0, 0})
		s.AddElement("m", KindFloorPanel, Position{1.5, 1, 0})
		if err := s.Connect("a", "b", float64(j1)); err != nil {
			return false
		}
		before, _, err := s.PathLossDB("a", "b")
		if err != nil {
			return false
		}
		if err := s.Connect("a", "m", float64(j2)); err != nil {
			return false
		}
		if err := s.Connect("m", "b", float64(j2)); err != nil {
			return false
		}
		after, _, err := s.PathLossDB("a", "b")
		if err != nil {
			return false
		}
		return after <= before+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// referencePathLoss is the per-pair, map-based Dijkstra that
// PathLossDB ran on every call before the path table existed. It stays
// here as the reference the compiled table must reproduce bit for bit
// (on graphs without tied routes, where its map-order tie-breaking
// cannot show).
func referencePathLoss(s *Structure, a, b string) (lossDB, pathMeters float64, err error) {
	if _, ok := s.elements[a]; !ok {
		return 0, 0, fmt.Errorf("biw: unknown element %q", a)
	}
	if _, ok := s.elements[b]; !ok {
		return 0, 0, fmt.Errorf("biw: unknown element %q", b)
	}
	if a == b {
		return s.CouplingLossDB, 0, nil
	}
	type state struct {
		loss, dist float64
	}
	best := map[string]state{a: {0, 0}}
	visited := map[string]bool{}
	for {
		// Extract the unvisited node with the smallest loss.
		cur, curState, found := "", state{math.Inf(1), 0}, false
		for n, st := range best {
			if !visited[n] && st.loss < curState.loss {
				cur, curState, found = n, st, true
			}
		}
		if !found {
			return 0, 0, fmt.Errorf("biw: no acoustic path from %q to %q", a, b)
		}
		if cur == b {
			return curState.loss + s.CouplingLossDB, curState.dist, nil
		}
		visited[cur] = true
		for _, e := range s.adj[cur] {
			nl := curState.loss + e.distance*s.AttenuationDBPerMeter + e.junction
			if st, ok := best[e.to]; !ok || nl < st.loss {
				best[e.to] = state{nl, curState.dist + e.distance}
			}
		}
	}
}

// requireMatchesReference compares PathLossDB with referencePathLoss on
// every ordered pair of names: losses and lengths must be ==, errors
// must carry the same message.
func requireMatchesReference(t *testing.T, s *Structure, names []string) {
	t.Helper()
	for _, a := range names {
		for _, b := range names {
			gl, gm, gerr := s.PathLossDB(a, b)
			wl, wm, werr := referencePathLoss(s, a, b)
			if fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("%s->%s: error %v, reference %v", a, b, gerr, werr)
			}
			if gl != wl || gm != wm {
				t.Fatalf("%s->%s: table (%v dB, %v m), reference (%v dB, %v m)", a, b, gl, gm, wl, wm)
			}
		}
	}
}

func TestPathTableMatchesReferenceONVOL60(t *testing.T) {
	s := NewONVOL60().Structure
	names := s.Elements()
	if len(names) != 15 {
		t.Fatalf("ONVO L60 has %d elements, want 15", len(names))
	}
	requireMatchesReference(t, s, names)
}

// randomStructure builds a connected graph of 5..24 elements: a random
// spanning tree plus extra random edges, with continuous random
// positions and junction losses so no two routes tie on loss. Some
// junction losses are negative (Connect accepts them); the reference
// never revisits a settled element, and the table must not either.
func randomStructure(seed uint64) (*Structure, []string) {
	rng := sim.NewRand(seed)
	s := NewStructure(0.5+4*rng.Float64(), 30*rng.Float64())
	n := 5 + rng.Intn(20)
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("e%02d", i)
		s.AddElement(names[i], KindBeam, Position{5 * rng.Float64(), 2 * rng.Float64(), rng.Float64()})
	}
	connect := func(a, b string) {
		if err := s.Connect(a, b, 5*rng.Float64()-1); err != nil {
			panic(err)
		}
	}
	for i := 1; i < n; i++ {
		connect(names[i], names[rng.Intn(i)])
	}
	for k := rng.Intn(2 * n); k > 0; k-- {
		connect(names[rng.Intn(n)], names[rng.Intn(n)])
	}
	return s, names
}

func TestPathTableMatchesReferenceRandom(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		s, names := randomStructure(seed)
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			requireMatchesReference(t, s, names)
		})
	}
}

// A compiled table must be dropped by AddElement and Connect, follow a
// change of AttenuationDBPerMeter, and pick up CouplingLossDB at lookup
// time; unknown-element and no-path errors keep their messages.
func TestPathTableInvalidation(t *testing.T) {
	s, names := randomStructure(7)
	requireMatchesReference(t, s, names)

	s.AddElement("island", KindPillar, Position{9, 9, 9})
	names = append(names, "island", "nope")
	requireMatchesReference(t, s, names)

	if err := s.Connect("island", names[0], 1.25); err != nil {
		t.Fatal(err)
	}
	requireMatchesReference(t, s, names)

	s.AttenuationDBPerMeter *= 1.5
	requireMatchesReference(t, s, names)

	s.CouplingLossDB += 7
	requireMatchesReference(t, s, names)

	// Re-adding an element keeps its junctions.
	s.AddElement(names[0], KindFloorPanel, Position{})
	requireMatchesReference(t, s, names)
}

// Two routes a->b tie on loss (5 dB) but not on length (3 m via the
// near midpoint, 5 m via the far one). The map-ordered search returned
// either length; the table orders by (loss, meters) and must always
// return the shorter, whichever midpoint sorts first by name.
func TestPathLossTieIsDeterministic(t *testing.T) {
	for _, mids := range [][2]string{{"m1", "m2"}, {"m2", "m1"}} {
		near, far := mids[0], mids[1]
		for i := 0; i < 200; i++ {
			s := NewStructure(1, 0)
			s.AddElement("a", KindFloorPanel, Position{0, 0, 0})
			s.AddElement(near, KindFloorPanel, Position{1, 0, 0})
			s.AddElement(far, KindFloorPanel, Position{-1, 0, 0})
			s.AddElement("b", KindFloorPanel, Position{3, 0, 0})
			for _, e := range []struct {
				a, b string
				j    float64
			}{{"a", near, 0}, {"a", far, 0}, {near, "b", 2}, {far, "b", 0}} {
				if err := s.Connect(e.a, e.b, e.j); err != nil {
					t.Fatal(err)
				}
			}
			loss, meters, err := s.PathLossDB("a", "b")
			if err != nil {
				t.Fatal(err)
			}
			if loss != 5 || meters != 3 {
				t.Fatalf("near %s, build %d: a->b = (%v dB, %v m), want (5 dB, 3 m)", near, i, loss, meters)
			}
		}
	}
}

// With zero attenuation and zero junction losses every route ties on
// loss, so the reported length must be the plain shortest distance:
// the search has to settle elements in (loss, meters) order, not in
// name order (here "c", on the 8.5 m route, sorts before "z").
func TestPathLossAllTiedTakesShortest(t *testing.T) {
	s := NewStructure(0, 0)
	s.AddElement("a", KindFloorPanel, Position{0, 0, 0})
	s.AddElement("c", KindFloorPanel, Position{0, 4, 0})
	s.AddElement("d", KindFloorPanel, Position{2, 0, 0})
	s.AddElement("z", KindFloorPanel, Position{1, 0, 0})
	for _, e := range [][2]string{{"a", "c"}, {"c", "d"}, {"a", "z"}, {"z", "d"}} {
		if err := s.Connect(e[0], e[1], 0); err != nil {
			t.Fatal(err)
		}
	}
	loss, meters, err := s.PathLossDB("a", "d")
	if err != nil {
		t.Fatal(err)
	}
	if loss != 0 || meters != 2 {
		t.Errorf("a->d = (%v dB, %v m), want (0 dB, 2 m)", loss, meters)
	}
}

// Eight goroutines race to make the first query on a fresh structure;
// every one must see the serial answers (run under -race by make race).
func TestPathTableConcurrentFirstQuery(t *testing.T) {
	serial := NewONVOL60().Structure
	names := serial.Elements()
	type result struct{ loss, meters float64 }
	want := make(map[[2]string]result)
	for _, a := range names {
		for _, b := range names {
			l, m, err := serial.PathLossDB(a, b)
			if err != nil {
				t.Fatal(err)
			}
			want[[2]string{a, b}] = result{l, m}
		}
	}

	s := NewONVOL60().Structure
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, a := range names {
				for _, b := range names {
					l, m, err := s.PathLossDB(a, b)
					if err != nil || (result{l, m}) != want[[2]string{a, b}] {
						errs <- fmt.Errorf("%s->%s: (%v, %v, %v), want %v", a, b, l, m, err, want[[2]string{a, b}])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// After the first query, the link-budget lookups the event network
// makes per tag per beacon must not allocate.
func TestPathLookupsAllocationFree(t *testing.T) {
	d := NewONVOL60()
	ch := DefaultChannel(d)
	reader, far := d.Reader.Element, d.Tags[10].Element
	checks := map[string]func(){
		"Structure.PathLossDB": func() {
			if _, _, err := d.Structure.PathLossDB(reader, far); err != nil {
				t.Fatal(err)
			}
		},
		"Deployment.TagLossDB": func() {
			if _, err := d.TagLossDB(11); err != nil {
				t.Fatal(err)
			}
		},
		"Channel.TagPeakVoltage": func() {
			if _, err := ch.TagPeakVoltage(11); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, f := range checks {
		if allocs := testing.AllocsPerRun(100, f); allocs != 0 {
			t.Errorf("%s: %v allocs per call, want 0", name, allocs)
		}
	}
}

func BenchmarkPathLossDB(b *testing.B) {
	d := NewONVOL60()
	reader := d.Reader.Element
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := d.Structure.PathLossDB(reader, d.Tags[i%len(d.Tags)].Element); err != nil {
			b.Fatal(err)
		}
	}
}
