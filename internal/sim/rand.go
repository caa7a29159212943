package sim

import (
	"math"
	"math/bits"
)

// Rand is a small, fast, deterministic PRNG (SplitMix64 core feeding an
// xoshiro256** state). Every simulation entity that needs randomness
// derives its own Rand from the experiment seed so results are
// reproducible and independent of entity iteration order.
type Rand struct {
	s [4]uint64
}

// NewRand returns a generator seeded from seed via SplitMix64 expansion,
// which guarantees a well-mixed nonzero state even for small seeds.
func NewRand(seed uint64) *Rand {
	r := &Rand{}
	r.Seed(seed)
	return r
}

// Seed reinitializes the generator in place, bit-identically to
// NewRand(seed). Pooled simulation state uses it to rewind an existing
// stream to a fresh trial without allocating a new generator.
//
//alloc:hot in-place rewind for pooled simulation state
func (r *Rand) Seed(seed uint64) {
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
}

// Fork derives an independent stream labelled by id. Two forks of the
// same parent with different ids produce uncorrelated sequences.
func (r *Rand) Fork(id uint64) *Rand {
	f := &Rand{}
	f.ReseedFork(r, id)
	return f
}

// ReseedFork reinitializes r in place as a fork of parent labelled by
// id, consuming exactly the parent state a Fork call would: the
// resulting stream is bit-identical to parent.Fork(id). This is the
// allocation-free reset path for clone pools that must replay a
// construction-time fork sequence.
//
//alloc:hot allocation-free fork-replay reset for clone pools
func (r *Rand) ReseedFork(parent *Rand, id uint64) {
	r.Seed(parent.Uint64() ^ (id * 0x9e3779b97f4a7c15) ^ 0xa0761d6478bd642f)
}

// Uint64 returns the next 64 pseudo-random bits. The step works on
// locals, which keeps it (and Bool) within the compiler's inlining
// budget (check with -gcflags=-m=2).
//
//alloc:hot core PRNG step on every simulated slot
func (r *Rand) Uint64() uint64 {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	s2 ^= s0
	s3 ^= s1
	r.s[0] = s0 ^ s3
	r.s[1] = s1 ^ s2
	r.s[2] = s2 ^ s1<<17
	r.s[3] = bits.RotateLeft64(s3, 45)
	return bits.RotateLeft64(s1*5, 7) * 9
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		//lint:allow panic-hygiene documented API contract mirroring math/rand.Intn
		panic("sim: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method for unbiased bounded ints.
	bound := uint64(n)
	threshold := (-bound) % bound
	for {
		hi, lo := bits.Mul64(r.Uint64(), bound)
		if lo >= threshold {
			return int(hi)
		}
	}
}

// Float64 returns a uniform float in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// NormBound bounds |NormFloat64()|. The polar draws u and v are
// multiples of 2⁻⁵² (Float64 has 53 bits), so an accepted s = u²+v² is
// at least 2⁻¹⁰⁴ and |z| ≤ √(−2 ln s) ≤ √(208 ln 2) ≈ 12.007. The
// margin above that absorbs the rounding of the float evaluation.
const NormBound = 12.1

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
func (r *Rand) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// SkipNormFloat64 advances the stream past one NormFloat64 draw: it
// runs the same accept/reject loop on s but skips the log, square root
// and divide. A caller that can prove the variate cannot matter (see
// NormBound) keeps its place in the stream for a fraction of the cost.
//
//alloc:hot per-sample noise skip in the downlink envelope kernel
func (r *Rand) SkipNormFloat64() {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return
		}
	}
}

// ExpFloat64 returns an exponential variate with rate 1.
func (r *Rand) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
