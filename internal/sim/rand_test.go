package sim

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"testing"
)

// Seed must rewind an existing generator to exactly the stream a fresh
// NewRand would produce — the clone pools rely on bit-identical replay.
func TestSeedMatchesNewRand(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 0xDEADBEEF, ^uint64(0)} {
		fresh := NewRand(seed)
		reused := NewRand(seed ^ 0x1234) // dirty it first
		for i := 0; i < 17; i++ {
			reused.Uint64()
		}
		reused.Seed(seed)
		for i := 0; i < 100; i++ {
			if a, b := fresh.Uint64(), reused.Uint64(); a != b {
				t.Fatalf("seed %d draw %d: %x != %x", seed, i, a, b)
			}
		}
	}
}

// ReseedFork must consume the parent identically to Fork and yield the
// same child stream.
func TestReseedForkMatchesFork(t *testing.T) {
	p1, p2 := NewRand(7), NewRand(7)
	c1 := p1.Fork(3)
	var c2 Rand
	c2.ReseedFork(p2, 3)
	for i := 0; i < 100; i++ {
		if a, b := c1.Uint64(), c2.Uint64(); a != b {
			t.Fatalf("child draw %d: %x != %x", i, a, b)
		}
	}
	// Parents consumed the same amount of state.
	if a, b := p1.Uint64(), p2.Uint64(); a != b {
		t.Fatalf("parent streams diverged after fork: %x != %x", a, b)
	}
}

// A reset loop on pooled generators must not allocate.
func TestSeedAllocationFree(t *testing.T) {
	r := NewRand(1)
	var child Rand
	n := testing.AllocsPerRun(100, func() {
		r.Seed(9)
		child.ReseedFork(r, 2)
		_ = child.Uint64()
	})
	if n != 0 {
		t.Fatalf("Seed/ReseedFork allocate %v per run, want 0", n)
	}
}

// refRand is the generator as first written (array-indexed state and a
// shift-or rotate), kept as the oracle for the inlinable Uint64 step.
type refRand struct{ s [4]uint64 }

func refRotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

func (r *refRand) Uint64() uint64 {
	result := refRotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = refRotl(r.s[3], 45)
	return result
}

func (r *refRand) Float64() float64 { return float64(r.Uint64()>>11) / (1 << 53) }

func (r *refRand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

func (r *refRand) Intn(n int) int {
	bound := uint64(n)
	threshold := (-bound) % bound
	for {
		hi, lo := bits.Mul64(r.Uint64(), bound)
		if lo >= threshold {
			return int(hi)
		}
	}
}

func (r *refRand) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// TestRandMatchesReference pins every derived draw to the oracle's
// sequence, so a rewrite of the step cannot move any simulation's
// random stream.
func TestRandMatchesReference(t *testing.T) {
	const draws = 100_000
	for _, seed := range []uint64{1, 42, 0xDEADBEEF} {
		got := NewRand(seed)
		want := &refRand{s: got.s}
		for i := 0; i < draws; i++ {
			if a, b := got.Uint64(), want.Uint64(); a != b {
				t.Fatalf("seed %d Uint64 draw %d: %x != %x", seed, i, a, b)
			}
			if a, b := got.Float64(), want.Float64(); a != b {
				t.Fatalf("seed %d Float64 draw %d: %v != %v", seed, i, a, b)
			}
			p := float64(i%11) / 10 // 0, 0.1, ..., 1
			if a, b := got.Bool(p), want.Bool(p); a != b {
				t.Fatalf("seed %d Bool(%v) draw %d: %v != %v", seed, p, i, a, b)
			}
			n := 1 + i%37
			if a, b := got.Intn(n), want.Intn(n); a != b {
				t.Fatalf("seed %d Intn(%d) draw %d: %d != %d", seed, n, i, a, b)
			}
			if a, b := got.NormFloat64(), want.NormFloat64(); a != b {
				t.Fatalf("seed %d NormFloat64 draw %d: %v != %v", seed, i, a, b)
			}
		}
	}
}

// emitting returns a generator whose next two Uint64 draws are o1 and
// o2. The output is rotl(s1·5, 7)·9 of the current s1, and one step
// sets s1 to s0^s1^s2, so both outputs can be placed by inverting the
// scrambler.
func emitting(o1, o2 uint64) *Rand {
	inv := func(a uint64) uint64 { // inverse of odd a mod 2⁶⁴ (Newton)
		x := a
		for i := 0; i < 6; i++ {
			x *= 2 - a*x
		}
		return x
	}
	unscramble := func(o uint64) uint64 { return bits.RotateLeft64(o*inv(9), -7) * inv(5) }
	r := &Rand{}
	r.s[0], r.s[3] = 0x1234, 0x5678
	r.s[1] = unscramble(o1)
	r.s[2] = r.s[0] ^ r.s[1] ^ unscramble(o2)
	return r
}

// The smallest accepted polar radius, u = ±2⁻⁵² and v = 0, gives the
// largest |NormFloat64| there is; it must stay within NormBound, or the
// downlink kernel's noise skip would not be exact.
func TestNormFloat64Bound(t *testing.T) {
	const half = uint64(1) << 52 // Float64 = k/2⁵³, so u = 2F−1 = (k−2⁵²)/2⁵²
	for _, k := range []uint64{half + 1, half - 1} {
		r := emitting(k<<11, half<<11)
		z := r.NormFloat64()
		if math.Abs(z) > NormBound {
			t.Fatalf("u=%+v: |z| = %v exceeds NormBound %v", float64(int64(k-half))/(1<<52), math.Abs(z), NormBound)
		}
		if math.Abs(z) < 12 {
			t.Fatalf("extreme draw gave |z| = %v; the construction missed s = 2⁻¹⁰⁴", math.Abs(z))
		}
	}
	r := NewRand(3)
	for i := 0; i < 1_000_000; i++ {
		if z := r.NormFloat64(); math.Abs(z) > NormBound {
			t.Fatalf("draw %d: |z| = %v exceeds NormBound", i, math.Abs(z))
		}
	}
}

// SkipNormFloat64 must consume exactly the words NormFloat64 does, so
// a stream that skips some draws stays in step with one that takes
// them all.
func TestSkipNormFloat64KeepsStream(t *testing.T) {
	for _, seed := range []uint64{1, 42, 0xDEADBEEF, 7777} {
		all, skip := NewRand(seed), NewRand(seed)
		pick := NewRand(seed ^ 0x5eed) // decides which calls skip
		for i := 0; i < 1_000_000; i++ {
			want := all.NormFloat64()
			if pick.Uint64()&1 == 0 {
				skip.SkipNormFloat64()
			} else if got := skip.NormFloat64(); got != want {
				t.Fatalf("seed %d call %d: %v != %v", seed, i, got, want)
			}
			if all.s != skip.s {
				t.Fatalf("seed %d call %d: states diverged", seed, i)
			}
		}
	}
}

// polarDraw returns a generator whose next polar pair is u = a/2⁵²,
// v = b/2⁵², for a, b in [−2⁵², 2⁵²): Float64 = k/2⁵³ maps to
// 2F−1 = (k−2⁵²)/2⁵².
func polarDraw(a, b int64) *Rand {
	const half = int64(1) << 52
	return emitting(uint64(a+half)<<11, uint64(b+half)<<11)
}

// bracketDraw draws once from r through NormFloat64 and through
// NormBracket on a copy. It returns the bracket's radius and whether
// the bracket holds the value (exactly, for a zero radius) and both
// calls left the same state.
func bracketDraw(r *Rand) (rad float64, ok bool) {
	b := *r
	z := r.NormFloat64()
	mid, rad := b.NormBracket()
	ok = math.Abs(z-mid) <= rad && (rad > 0 || mid == z) && b.s == r.s
	return rad, ok
}

// NormBracket must bracket NormFloat64's value and consume its words,
// on a long random stream and on constructed draws at every cell
// boundary of its table, just below s = 1, around the bottom of the
// table (s = 2⁻⁸) and at the extreme s = 2⁻¹⁰⁴ of TestNormFloat64Bound.
func TestNormBracketContainsNormFloat64(t *testing.T) {
	const draws = 1_000_000
	r := NewRand(11)
	sum := 0.0
	for i := 0; i < draws; i++ {
		rad, ok := bracketDraw(r)
		if !ok {
			t.Fatalf("draw %d: bracket misses NormFloat64 or the state", i)
		}
		sum += rad
	}
	// 64 cells an octave keep the bracket tight: the mean radius is
	// about 0.6% of σ. A coarser table would send far more Fig. 12(b)
	// packets to the exact fallback.
	if mean := sum / draws; mean > 0.01 {
		t.Errorf("mean bracket radius %v, want <= 0.01", mean)
	}

	check := func(a, b int64, what string, want func(s float64) bool) {
		t.Helper()
		u, v := float64(a)/(1<<52), float64(b)/(1<<52)
		if s := u*u + v*v; !(s > 0 && s < 1) || !want(s) {
			t.Fatalf("%s: construction gave s = %v", what, s)
		}
		if _, ok := bracketDraw(polarDraw(a, b)); !ok {
			t.Fatalf("%s (u = %v, v = %v): bracket misses NormFloat64 or the state", what, u, v)
		}
	}
	accepted := func(float64) bool { return true }
	for i := 0; i < normOctaves<<normCellBits; i++ {
		e, m := i>>normCellBits, i&(1<<normCellBits-1)
		edge := math.Ldexp(1+float64(m)/(1<<normCellBits), e-normOctaves)
		a0 := int64(math.Sqrt(edge) * (1 << 52)) // u² within an ulp of the edge
		for a := a0 - 2; a <= a0+2; a++ {
			for _, sign := range []int64{1, -1} {
				what := fmt.Sprintf("cell %d edge, %d/2⁵²", i, sign*a)
				check(sign*a, 0, what+" in u", accepted)
				check(0, sign*a, what+" in v", accepted)
			}
		}
	}
	const one = int64(1) << 52 // u = 1
	below := func(x float64) func(float64) bool { return func(s float64) bool { return s < x && s > x*(1-1e-12) } }
	edges := []struct {
		what string
		a, b int64
		want func(float64) bool
	}{
		{"s just below 1", one - 1, 0, below(1)},
		{"s just below 1, u small", 1, one - 1, below(1)},
		{"s just below 1, u = v", 3184525836262886, -3184525836262886, below(1)}, // ≈ 2⁵²/√2
		{"s = 2⁻⁸, bottom of table", one >> 4, 0, func(s float64) bool { return s == 0x1p-8 }},
		{"s just under 2⁻⁸", one>>4 - 1, 0, below(0x1p-8)},
		{"s just under 2⁻⁸, u = v", 199032864766430, -199032864766430, below(0x1p-8)}, // ≈ 2⁴⁷·√2
		{"s = 2⁻¹⁰⁴", 1, 0, func(s float64) bool { return s == 0x1p-104 }},
		{"s = 2⁻¹⁰⁴, negative u", -1, 0, func(s float64) bool { return s == 0x1p-104 }},
	}
	for _, c := range edges {
		check(c.a, c.b, c.what, c.want)
	}
}

// exactThreshold is ⌈p·2⁵³⌉ in exact arithmetic.
func exactThreshold(p float64) uint64 {
	f := new(big.Float).SetFloat64(p)
	i, acc := f.SetMantExp(f, 53).Int(nil)
	if acc == big.Below {
		i.Add(i, big.NewInt(1))
	}
	return i.Uint64()
}

// FirstBelow must consume exactly the words a loop of Bool calls with
// the same probabilities does: the same number of tests, the same hit
// position and the same trailing state, over patterns that wrap, scans
// that stop short and certain tests (p = 1) that draw no word.
// BoolThreshold must split the words where Bool does, checked on
// constructed words on either side of the threshold.
func TestFirstBelowMatchesBool(t *testing.T) {
	boundary := []float64{0x1p-60, 0.0005, 1.0 / 3, 1 - 0x1p-53}
	patterns := [][]float64{
		{0.5},
		{0.002, 0.001},
		{0.002, 0.001, 0.0005, 0.3, 0.05},
		{0.01, 1, 0.2, 0.002, 1},
		boundary,
	}
	for _, probs := range patterns {
		thr := make([]uint64, len(probs))
		for j, p := range probs {
			thr[j] = BoolThreshold(p)
		}
		for seed := uint64(1); seed <= 20; seed++ {
			r, ref := NewRand(seed), NewRand(seed)
			pos, hits := int(seed)%len(probs), 0
			for call := 0; call < 300; call++ {
				n := call % 97 // 0 tests nothing
				tests, hit := r.FirstBelow(thr, pos, n)
				wantTests, wantHit := 0, false
				for wantTests < n && !wantHit {
					wantHit = ref.Bool(probs[(pos+wantTests)%len(probs)])
					wantTests++
				}
				if tests != wantTests || hit != wantHit || r.s != ref.s {
					t.Fatalf("%v seed %d call %d: FirstBelow(pos %d, n %d) = (%d, %v), Bool loop (%d, %v), same state %v",
						probs, seed, call, pos, n, tests, hit, wantTests, wantHit, r.s == ref.s)
				}
				if hit {
					hits++
				}
				pos = (pos + tests) % len(probs)
			}
			if len(probs) > 1 && hits == 0 {
				t.Fatalf("%v seed %d: no hit in 300 scans", probs, seed)
			}
		}
	}

	for _, p := range []float64{1, 1.5} {
		if k := BoolThreshold(p); k != Certain {
			t.Fatalf("BoolThreshold(%v) = %d, want Certain", p, k)
		}
	}
	for _, p := range boundary {
		k := BoolThreshold(p)
		if want := exactThreshold(p); k != want {
			t.Fatalf("BoolThreshold(%v) = %d, want %d", p, k, want)
		}
		for _, w := range []struct {
			k   uint64
			hit bool
		}{{k - 1, true}, {k, false}} {
			for _, low := range []uint64{0, 1<<11 - 1} { // the low 11 bits never count
				word := w.k<<11 | low
				r, ref := emitting(word, 0), emitting(word, 0)
				tests, hit := r.FirstBelow([]uint64{k}, 0, 1)
				if got := ref.Bool(p); got != w.hit || hit != w.hit || tests != 1 || r.s != ref.s {
					t.Fatalf("p = %v, k = %d: Bool %v, FirstBelow (%d, %v), want hit %v", p, w.k, got, tests, hit, w.hit)
				}
			}
		}
	}
}
