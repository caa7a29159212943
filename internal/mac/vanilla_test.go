package mac

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestVanillaAllocateTable3(t *testing.T) {
	// Every admissible Table 3 pattern must have a static collision-free
	// schedule.
	for _, pt := range Table3Patterns() {
		as, err := VanillaAllocate(pt)
		if err != nil {
			t.Errorf("%s: %v", pt.Name, err)
			continue
		}
		if len(as) != pt.NumTags() {
			t.Errorf("%s: %d assignments for %d tags", pt.Name, len(as), pt.NumTags())
		}
		if err := VerifySchedule(as); err != nil {
			t.Errorf("%s: %v", pt.Name, err)
		}
		// Assignments preserve tag order.
		for i, a := range as {
			if a.Period != pt.Periods[i] {
				t.Errorf("%s: tag %d period %d, want %d", pt.Name, i, a.Period, pt.Periods[i])
			}
		}
	}
}

func TestVanillaAllocateFullUtilization(t *testing.T) {
	pt := Pattern{Periods: []Period{2, 4, 8, 8}}
	as, err := VanillaAllocate(pt)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifySchedule(as); err != nil {
		t.Fatal(err)
	}
}

func TestVanillaAllocateRequiresBacktracking(t *testing.T) {
	// Two period-4 tags and one period-2 tag: greedy placement of the
	// period-4 tags at offsets 0 and 1 would strand the period-2 tag,
	// but a valid schedule exists (0, 2, 1).
	pt := Pattern{Periods: []Period{4, 4, 2}}
	as, err := VanillaAllocate(pt)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifySchedule(as); err != nil {
		t.Fatal(err)
	}
}

func TestVanillaAllocateInvalidPattern(t *testing.T) {
	if _, err := VanillaAllocate(Pattern{Periods: []Period{2, 2, 2}}); err == nil {
		t.Error("over-capacity pattern allocated")
	}
	if _, err := VanillaAllocate(Pattern{Periods: []Period{5}}); err == nil {
		t.Error("invalid period allocated")
	}
}

// Property (DESIGN.md): any pattern with power-of-two periods and
// utilization <= 1 is allocatable collision-free.
func TestVanillaAllocateAlwaysFeasibleUnderCapacity(t *testing.T) {
	f := func(raw []uint8) bool {
		var ps []Period
		var u float64
		for _, r := range raw {
			p := Period(1 << (1 + r%5)) // 2..32
			if u+1/float64(p) > 1 {
				continue
			}
			u += 1 / float64(p)
			ps = append(ps, p)
		}
		if len(ps) == 0 {
			return true
		}
		as, err := VanillaAllocate(Pattern{Periods: ps})
		if err != nil {
			return false
		}
		return VerifySchedule(as) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestVerifyScheduleDetectsCollision(t *testing.T) {
	bad := []Assignment{
		{Period: 4, Offset: 1},
		{Period: 8, Offset: 5}, // 5 mod 4 == 1
	}
	if err := VerifySchedule(bad); err == nil {
		t.Error("collision not detected")
	}
}

func TestFeasibleOffset(t *testing.T) {
	existing := []Assignment{
		{Period: 2, Offset: 0},
		{Period: 4, Offset: 1},
	}
	// Free slots are ...3 mod 4.
	off := FeasibleOffset(existing, 4)
	if off != 3 {
		t.Errorf("offset = %d, want 3", off)
	}
	// A period-2 tag has no room (slots 0 mod 2 and 1 mod 4 taken).
	if off := FeasibleOffset(existing, 2); off != -1 {
		t.Errorf("infeasible case returned %d", off)
	}
	// Empty network: everything is free.
	if off := FeasibleOffset(nil, 8); off != 0 {
		t.Errorf("empty network offset = %d", off)
	}
}

// TestChooseVictimSec56Example drives the reader's victim chooser
// (the one judgeSolo calls) on the Sec. 5.6 example.
func TestChooseVictimSec56Example(t *testing.T) {
	// The Sec. 5.6 example: tags A and B settled with period 4 at
	// offsets 2 and 3; late tag C has period 2. C needs offsets {0,1}
	// mod 2 free, but A occupies 0-parity and B 1-parity: no viable
	// offset without eviction.
	existing := []Assignment{
		{Period: 4, Offset: 2}, // tag A
		{Period: 4, Offset: 3}, // tag B
	}
	if FeasibleOffset(existing, 2) != -1 {
		t.Fatal("precondition: C must be blocked")
	}
	v := new(ReaderProtocol).chooseVictim(existing, 2)
	if v < 0 {
		t.Fatal("no victim found though evicting either A or B works")
	}
	// After evicting the victim, C fits, and the victim can re-settle.
	rest := append([]Assignment{}, existing[:v]...)
	rest = append(rest, existing[v+1:]...)
	cOff := FeasibleOffset(rest, 2)
	if cOff < 0 {
		t.Fatal("C still blocked after eviction")
	}
	after := append(rest, Assignment{Period: 2, Offset: cOff})
	if FeasibleOffset(after, 4) < 0 {
		t.Fatal("victim cannot re-settle")
	}
}

func TestChooseVictimNoneHelps(t *testing.T) {
	// Full period-2 network: a period-1 newcomer can never fit even
	// with one eviction.
	existing := []Assignment{
		{Period: 2, Offset: 0},
		{Period: 2, Offset: 1},
	}
	if v := new(ReaderProtocol).chooseVictim(existing, 1); v != -1 {
		t.Errorf("victim %d chosen though eviction cannot help", v)
	}
}

func TestVanillaAllocateErrInfeasible(t *testing.T) {
	// Utilization exactly 1 but structurally infeasible patterns don't
	// exist for powers of two; force infeasibility via a pattern check
	// bypass: three period-2 tags fail Validate, so check the error
	// type through FeasibleOffset-style saturation instead.
	pt := Pattern{Periods: []Period{1, 2}}
	_, err := VanillaAllocate(pt)
	// U = 1.5 > 1: rejected by validation, not ErrInfeasible.
	if err == nil {
		t.Fatal("expected error")
	}
	if errors.Is(err, ErrInfeasible) {
		t.Fatal("validation failure misreported as infeasible")
	}
}

// TestAssignmentMaskMatchesModulo checks the mask forms of TransmitsAt
// and Conflicts against the modulo definitions they replace, for every
// period 2^0..2^10, every offset in [0, P) and every slot in [0, 64P).
func TestAssignmentMaskMatchesModulo(t *testing.T) {
	const maxLog = 10
	for k := 0; k <= maxLog; k++ {
		p := 1 << k
		for off := 0; off < p; off++ {
			a := Assignment{Period: Period(p), Offset: off}
			for s := 0; s < 64*p; s++ {
				if got, want := a.TransmitsAt(s), s%p == off%p; got != want {
					t.Fatalf("%+v.TransmitsAt(%d) = %v, modulo form %v", a, s, got, want)
				}
			}
		}
		for j := 0; j <= maxLog; j++ {
			q := 1 << j
			m := min(p, q)
			for ao := 0; ao < p; ao++ {
				for bo := 0; bo < q; bo++ {
					a := Assignment{Period: Period(p), Offset: ao}
					b := Assignment{Period: Period(q), Offset: bo}
					if got, want := a.Conflicts(b), ao%m == bo%m; got != want {
						t.Fatalf("%+v.Conflicts(%+v) = %v, modulo form %v", a, b, got, want)
					}
				}
			}
		}
	}
}
