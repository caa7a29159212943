package mac

import (
	"fmt"
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestValidPeriod(t *testing.T) {
	for _, p := range []Period{1, 2, 4, 8, 16, 32, 1024} {
		if !ValidPeriod(p) {
			t.Errorf("%d should be valid", p)
		}
	}
	for _, p := range []Period{0, -1, 3, 6, 12, 33} {
		if ValidPeriod(p) {
			t.Errorf("%d should be invalid", p)
		}
	}
}

// MustPeriod validates p and panics otherwise; for literals in tests
// and pattern tables.
func MustPeriod(p int) Period {
	if !ValidPeriod(Period(p)) {
		panic(fmt.Sprintf("mac: %d is not a power-of-two period", p))
	}
	return Period(p)
}

// Log2 returns k for p = 2^k.
func (p Period) Log2() int { return bits.TrailingZeros64(uint64(p)) }

func TestMustPeriod(t *testing.T) {
	if MustPeriod(8) != 8 {
		t.Error("MustPeriod(8)")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustPeriod(3) did not panic")
		}
	}()
	MustPeriod(3)
}

func TestPeriodLog2(t *testing.T) {
	if Period(1).Log2() != 0 || Period(8).Log2() != 3 || Period(32).Log2() != 5 {
		t.Error("Log2 wrong")
	}
}

func TestPatternUtilization(t *testing.T) {
	pt := Pattern{Periods: []Period{2, 4, 8, 8}}
	// 1/2 + 1/4 + 1/8 + 1/8 = 1.0 (Table 1).
	if u := pt.Utilization(); math.Abs(u-1.0) > 1e-12 {
		t.Errorf("U = %v, want 1.0", u)
	}
	if err := pt.Validate(); err != nil {
		t.Errorf("Table 1 pattern invalid: %v", err)
	}
	over := Pattern{Periods: []Period{2, 2, 4}}
	if err := over.Validate(); err == nil {
		t.Error("overloaded pattern accepted")
	}
	bad := Pattern{Periods: []Period{3}}
	if err := bad.Validate(); err == nil {
		t.Error("non-power-of-two accepted")
	}
}

// TestPatternHyperperiod checks the hyperperiod the slot simulator's
// cycle skip uses: the reader's largest provisioned period, which for
// power-of-two periods is their LCM.
func TestPatternHyperperiod(t *testing.T) {
	r, err := NewReaderProtocol(map[int]Period{1: 2, 2: 8, 3: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r.maxP != 8 {
		t.Errorf("hyperperiod = %d, want 8", r.maxP)
	}
}

// TestTable3PatternsMatchPaper locks every pattern to the published
// tag counts and slot utilizations.
func TestTable3PatternsMatchPaper(t *testing.T) {
	want := []struct {
		name string
		tags int
		util float64
	}{
		{"c1", 12, 0.375},
		{"c2", 12, 0.75},
		{"c3", 12, 0.84375},
		{"c4", 12, 0.9375},
		{"c5", 12, 1.0},
		{"c6", 11, 0.75},
		{"c7", 10, 0.75},
		{"c8", 8, 0.75},
		{"c9", 6, 0.75},
	}
	pats := Table3Patterns()
	if len(pats) != len(want) {
		t.Fatalf("got %d patterns", len(pats))
	}
	for i, w := range want {
		p := pats[i]
		if p.Name != w.name {
			t.Errorf("pattern %d name %q", i, p.Name)
		}
		if p.NumTags() != w.tags {
			t.Errorf("%s: %d tags, want %d", w.name, p.NumTags(), w.tags)
		}
		if math.Abs(p.Utilization()-w.util) > 1e-9 {
			t.Errorf("%s: U = %v, want %v", w.name, p.Utilization(), w.util)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%s invalid: %v", w.name, err)
		}
	}
}

func TestAssignmentConflicts(t *testing.T) {
	a := Assignment{Period: 4, Offset: 2}
	b := Assignment{Period: 8, Offset: 6}
	// 6 mod 4 == 2: they share slots 6, 14, ...
	if !a.Conflicts(b) || !b.Conflicts(a) {
		t.Error("conflict not detected")
	}
	c := Assignment{Period: 8, Offset: 5}
	if a.Conflicts(c) {
		t.Error("false conflict")
	}
	// Same period, same offset.
	if !a.Conflicts(Assignment{Period: 4, Offset: 2}) {
		t.Error("identical assignments must conflict")
	}
}

// Property: Conflicts agrees with brute-force slot expansion.
func TestConflictsMatchesBruteForce(t *testing.T) {
	f := func(k1, k2 uint8, o1, o2 uint8) bool {
		p1 := Period(1 << (k1 % 6))
		p2 := Period(1 << (k2 % 6))
		a := Assignment{Period: p1, Offset: int(o1) % int(p1)}
		b := Assignment{Period: p2, Offset: int(o2) % int(p2)}
		brute := false
		h := int(p1)
		if int(p2) > h {
			h = int(p2)
		}
		for s := 0; s < h; s++ {
			if a.TransmitsAt(s) && b.TransmitsAt(s) {
				brute = true
				break
			}
		}
		return a.Conflicts(b) == brute
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestTable1Example(t *testing.T) {
	as := Table1Example()
	if err := VerifySchedule(as); err != nil {
		t.Errorf("Table 1 schedule collides: %v", err)
	}
	// Every slot 0..7 is covered exactly once (full utilization).
	for s := 0; s < 8; s++ {
		n := 0
		for _, a := range as {
			if a.TransmitsAt(s) {
				n++
			}
		}
		if n != 1 {
			t.Errorf("slot %d covered %d times", s, n)
		}
	}
}
