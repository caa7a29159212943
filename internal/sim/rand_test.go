package sim

import (
	"math"
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
