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

// BoolThreshold returns the FirstBelow threshold that tests like
// Bool(p), for p > 0. For p < 1 it is ⌈p·2⁵³⌉: Float64 is k/2⁵³ for
// the top 53 bits k of the word, exactly, so Bool(p) holds exactly
// when k < ⌈p·2⁵³⌉. For p ≥ 1 it is Certain. Bool(p) draws no word for
// p ≤ 0, and no threshold does that: leave such a test out.
func BoolThreshold(p float64) uint64 {
	if p >= 1 {
		return Certain
	}
	return uint64(math.Ceil(math.Ldexp(p, 53)))
}

// Certain is the FirstBelow threshold of a test that holds without
// drawing a word, as Bool(p) does for p ≥ 1.
const Certain = math.MaxUint64

// FirstBelow runs up to n tests and stops after the first that holds.
// The i-th test uses the threshold thr[(pos+i) % len(thr)], so a
// cyclic thr scans a pattern that repeats slot after slot. A test
// draws one word and holds when the word's top 53 bits are below its
// threshold; a Certain test holds without drawing. With
// thr[j] = BoolThreshold(p_j), FirstBelow consumes exactly the words
// of a loop of Bool(p_j) calls that stops at the first true. It
// returns the number of tests run, the one that held included, and
// whether one held.
//
//alloc:hot scans a chaos vehicle's memoryless fault streams ahead of the slot
func (r *Rand) FirstBelow(thr []uint64, pos, n int) (tests int, hit bool) {
	if len(thr) == 0 {
		return 0, false
	}
	s := r.s
	seg := thr[pos:]
	for tests < n && !hit {
		if len(seg) > n-tests {
			seg = seg[:n-tests]
		}
		var k int
		k, hit, s = firstBelow(s, seg)
		tests += k
		seg = thr
	}
	r.s = s
	return tests, hit
}

// firstBelow is FirstBelow's inner loop over one stretch of thr that
// does not wrap. Kept out of line, it holds the xoshiro state and the
// loop in registers.
//
//go:noinline
func firstBelow(s [4]uint64, thr []uint64) (tests int, hit bool, out [4]uint64) {
	s0, s1, s2, s3 := s[0], s[1], s[2], s[3]
	for _, t := range thr {
		tests++
		if t == Certain {
			hit = true
			break
		}
		w := bits.RotateLeft64(s1*5, 7) * 9
		u := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= u
		s3 = bits.RotateLeft64(s3, 45)
		if w>>11 < t {
			hit = true
			break
		}
	}
	return tests, hit, [4]uint64{s0, s1, s2, s3}
}

// NormBound bounds |NormFloat64()|. The polar draws u and v are
// multiples of 2⁻⁵² (Float64 has 53 bits), so an accepted s = u²+v² is
// at least 2⁻¹⁰⁴ and |z| ≤ √(−2 ln s) ≤ √(208 ln 2) ≈ 12.007. The
// margin above that absorbs the rounding of the float evaluation.
const NormBound = 12.1

// polar runs the accept/reject loop of the Marsaglia polar method and
// returns the accepted u and s = u²+v², 0 < s < 1. Every normal draw
// goes through it, so the bracketed and skipped draws consume exactly
// the words NormFloat64 does.
func (r *Rand) polar() (u, s float64) {
	for {
		u = 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			return u, s
		}
	}
}

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
func (r *Rand) NormFloat64() float64 {
	u, s := r.polar()
	return u * math.Sqrt(-2*math.Log(s)/s)
}

// SkipNormFloat64 advances the stream past one NormFloat64 draw: it
// runs the same accept/reject loop on s but skips the log, square root
// and divide. A caller that can prove the variate cannot matter (see
// NormBound) keeps its place in the stream for a fraction of the cost.
//
//alloc:hot per-sample noise skip in the downlink envelope kernel
func (r *Rand) SkipNormFloat64() {
	r.polar()
}

// NormBracket advances the stream past one NormFloat64 draw, like
// SkipNormFloat64, and returns an interval mid ± rad that contains the
// value NormFloat64 would have returned. The value is u·g(s) with
// g(s) = √(−2 ln s / s), which falls as s rises on (0, 1); normCells
// holds g's range over each of 64 cells per octave of s ∈ [2⁻⁸, 1), so
// a draw costs a table lookup instead of the log, square root and
// divide. For s below the table (probability 2⁻⁸) g is evaluated the
// way NormFloat64 does it and rad is 0.
//
//alloc:hot per-sample bracketed noise of the Fig. 12(b) uplink decoder
func (r *Rand) NormBracket() (mid, rad float64) {
	u, s := r.polar()
	b := math.Float64bits(s)
	e := int(b>>52) - normTableExp
	if e < 0 {
		return u * math.Sqrt(-2*math.Log(s)/s), 0
	}
	c := &normCells[e<<normCellBits|int(b>>(52-normCellBits))&(1<<normCellBits-1)]
	return u * c.mid, math.Abs(u) * c.rad
}

// The NormBracket table covers s ∈ [2^−normOctaves, 1) in
// 2^normCellBits cells per octave; normTableExp is the biased float64
// exponent of its lowest octave.
const (
	normOctaves  = 8
	normCellBits = 6
	normTableExp = 1023 - normOctaves
)

// normPad is the relative margin on each cell's range of g. The cell
// ends and NormFloat64's own evaluation are float computations, each
// off by a few units of 2⁻⁵³ (Go's math.Log is within 1 ulp; divide,
// square root and the products round by half an ulp each), as are
// the products u·mid and |u|·rad; 2⁻⁴⁰ is over a thousand times that.
const normPad = 0x1p-40

// normCell is g's range over one cell of s as a padded midpoint and
// radius.
type normCell struct{ mid, rad float64 }

// normCells is the NormBracket table, indexed by the octave of s and
// the top normCellBits bits of its mantissa. The top cell ends at s = 1,
// where g is 0.
var normCells = func() (t [normOctaves << normCellBits]normCell) {
	g := func(s float64) float64 { return math.Sqrt(-2 * math.Log(s) / s) }
	for i := range t {
		e, m := i>>normCellBits, i&(1<<normCellBits-1)
		octave := math.Ldexp(1, e-normOctaves) // lowest s of the octave
		sLo := octave * (1 + float64(m)/(1<<normCellBits))
		sHi := octave * (1 + float64(m+1)/(1<<normCellBits))
		lo, hi := g(sHi)*(1-normPad), g(sLo)*(1+normPad)
		t[i] = normCell{mid: (lo + hi) / 2, rad: (hi - lo) / 2}
	}
	return t
}()

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
