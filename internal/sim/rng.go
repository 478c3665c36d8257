package sim

import (
	"math"
	"math/bits"
)

// RNG is a small, fast, deterministic random stream (xoshiro256**). Each
// simulation component takes its own stream, derived by name from the
// kernel seed, so adding randomness to one component never perturbs the
// values another component sees. The zero value is not usable; use
// NewRNG or Kernel.Stream.
type RNG struct {
	s [4]uint64
}

// splitmix64 expands a seed into well-distributed state words.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRNG returns a stream seeded from seed. It is small enough to
// inline, so a caller that only copies the result out (*dst =
// *NewRNG(seed), re-seeding a stream in place) allocates nothing.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.seed(seed)
	return r
}

// seed stays out of line so that NewRNG fits the inliner's budget.
//
//go:noinline
func (r *RNG) seed(seed uint64) {
	for i := range r.s {
		r.s[i] = splitmix64(&seed)
	}
	// xoshiro must not start in the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// fnv1a hashes a stream name for sub-stream derivation.
func fnv1a(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

// Stream derives a named substream from the kernel seed. The same
// (seed, name) pair always yields the same stream.
func (k *Kernel) Stream(name string) *RNG {
	return NewRNG(k.seed ^ fnv1a(name))
}

// Fork derives a child stream from r's current state and a name, without
// disturbing r beyond one draw.
func (r *RNG) Fork(name string) *RNG {
	return NewRNG(r.Uint64() ^ fnv1a(name))
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// Uint64n returns a uniform value in [0, n). n must be > 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("sim: Uint64n(0)")
	}
	// Lemire's nearly-divisionless bounded generation.
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Intn returns a uniform int in [0, n). n must be > 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// Exp returns an exponentially distributed value with the given mean.
// Used for Poisson inter-arrival gaps in the telescope generator.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Normal returns a normally distributed value (Box–Muller).
func (r *RNG) Normal(mean, stddev float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + float64(stddev*z) // float64 rounds the product: no fused multiply-add (make vet)
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Zipf draws exactly from a Zipf distribution over ranks [0, n) with
// exponent s > 0, by inverse CDF: NewZipf precomputes the cumulative
// table and Draw binary-searches it for a uniform draw.
type Zipf struct {
	r    *RNG
	cdf  []float64
	imax int
}

// NewZipf builds an exact Zipf sampler over ranks [0, n) with exponent s.
// Memory is O(n); the telescope uses it for per-address popularity over
// bounded active sets.
func NewZipf(r *RNG, n int, s float64) *Zipf {
	if n <= 0 {
		panic("sim: NewZipf with non-positive n")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{r: r, cdf: cdf, imax: n - 1}
}

// Draw returns a rank in [0, n); rank 0 is the most popular.
func (z *Zipf) Draw() int {
	u := z.r.Float64()
	lo, hi := 0, z.imax
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
