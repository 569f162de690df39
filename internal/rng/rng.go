// Package rng provides deterministic, splittable pseudo-random streams.
//
// Every simulated node owns an independent stream derived from a single
// master seed, so whole simulation runs are reproducible from one
// integer while nodes still randomize independently — the model in the
// paper assumes "nodes ... can independently generate random bits".
//
// The generator is xoshiro256★★ seeded via SplitMix64, the standard
// construction recommended by the xoshiro authors. Both are implemented
// here directly (stdlib-only constraint) and are far cheaper than
// math/rand's locked global source.
package rng

import (
	"math"
	"math/bits"
)

// Source is a xoshiro256★★ pseudo-random generator.
// It is not safe for concurrent use; give each goroutine its own stream.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from seed via SplitMix64.
func New(seed uint64) *Source {
	var src Source
	src.Reseed(seed)
	return &src
}

// Reseed reinitializes the source from seed.
func (r *Source) Reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		sm, r.s[i] = splitMix64(sm)
	}
	// xoshiro must not start in the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9E3779B97F4A7C15
	}
}

// Split derives a new independent stream from r, keyed by id.
// Streams produced with distinct ids are statistically independent;
// Split does not perturb r's own state.
func (r *Source) Split(id uint64) *Source {
	// Mix the parent state with the id through SplitMix64 so sibling
	// streams decorrelate even for adjacent ids.
	h := r.s[0] ^ bits.RotateLeft64(r.s[2], 17) ^ (id * 0xD1342543DE82EF95)
	return New(h)
}

// Uint64 returns the next 64 random bits. The xoshiro256★★ step is
// written with locals and one state store so that it, and Below
// around it, stay within the compiler's inlining budget: per-node coin
// loops then draw without a call.
func (r *Source) Uint64() uint64 {
	s0, s1 := r.s[0], r.s[1]
	s2, s3 := r.s[2]^s0, r.s[3]^s1
	r.s = [4]uint64{s0 ^ s3, s1 ^ s2, s2 ^ s1<<17, bits.RotateLeft64(s3, 45)}
	return bits.RotateLeft64(s1*5, 7) * 9
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.uint64n(uint64(n)))
}

// IntRange returns a uniform integer in [lo, hi] inclusive.
// It panics if hi < lo.
func (r *Source) IntRange(lo, hi int) int {
	if hi < lo {
		panic("rng: IntRange with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// uint64n returns a uniform value in [0, n) using Lemire's
// multiply-shift rejection method.
func (r *Source) uint64n(n uint64) uint64 {
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns a fair coin flip.
func (r *Source) Bool() bool {
	return r.Uint64()&1 == 1
}

// Bernoulli returns true with probability p (clamped to [0, 1]). It
// draws nothing when the outcome is certain: p <= 0 and NaN are always
// false, p >= 1 always true.
func (r *Source) Bernoulli(p float64) bool {
	if !(p > 0) {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// alwaysBelow is the threshold Below treats as certain success: every
// 53-bit draw x>>11 lies below it.
const alwaysBelow = 1 << 53

// BernoulliThreshold converts p into the integer form Below consumes:
// ⌈p·2⁵³⌉, with 0 for p <= 0 and NaN and 2⁵³ for p >= 1. Float64 is
// (x>>11)/2⁵³ and p·2⁵³ is exact, so x>>11 < ⌈p·2⁵³⌉ holds exactly
// when Float64() < p: Below(BernoulliThreshold(p)) returns the same
// outcome as Bernoulli(p) and consumes the same draws.
func BernoulliThreshold(p float64) uint64 {
	if !(p > 0) {
		return 0
	}
	if p >= 1 {
		return alwaysBelow
	}
	return uint64(math.Ceil(p * alwaysBelow))
}

// Below returns true with probability t/2⁵³ for a threshold from
// BernoulliThreshold, drawing nothing when t is 0 or 2⁵³. Hot loops
// precompute t once instead of converting a float per draw.
func (r *Source) Below(t uint64) bool {
	// One unsigned compare sorts out both certain cases: t-1 wraps
	// around for t == 0.
	if t-1 >= alwaysBelow-1 {
		return t != 0
	}
	return r.Uint64()>>11 < t
}

// OneIn returns true with probability 1/n. It panics if n <= 0.
// This mirrors the paper's pseudocode "if random(1, 2^j) == 1".
func (r *Source) OneIn(n int) bool {
	return r.Intn(n) == 0
}

// Perm returns a uniform random permutation of [0, n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle permutes the first n elements using swap, Fisher–Yates style.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// WeightedChoice returns an index i with probability weights[i]/sum.
// Zero-weight entries are never chosen. It panics if the sum is not
// positive or any weight is negative.
//
// CSEEK part two uses this for density-weighted listener channel
// selection; the linear scan matches the pseudocode in Figure 1 and is
// fast enough for per-slot use at simulator scales (c ≤ a few hundred).
func (r *Source) WeightedChoice(weights []int64) int {
	var sum int64
	for _, w := range weights {
		if w < 0 {
			panic("rng: negative weight")
		}
		sum += w
	}
	if sum <= 0 {
		panic("rng: WeightedChoice with non-positive total weight")
	}
	target := int64(r.uint64n(uint64(sum)))
	for i, w := range weights {
		if target < w {
			return i
		}
		target -= w
	}
	// Unreachable: target < sum and the loop exhausts sum.
	panic("rng: WeightedChoice fell through")
}

// SampleK returns k distinct uniform values from [0, n) in unspecified
// order. It panics if k > n or k < 0.
func (r *Source) SampleK(n, k int) []int {
	if k < 0 || k > n {
		panic("rng: SampleK with k outside [0, n]")
	}
	if k == 0 {
		return nil
	}
	// Floyd's algorithm: O(k) expected time, no O(n) allocation.
	chosen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		v := r.Intn(j + 1)
		if _, dup := chosen[v]; dup {
			v = j
		}
		chosen[v] = struct{}{}
		out = append(out, v)
	}
	return out
}

func splitMix64(state uint64) (next, out uint64) {
	state += 0x9E3779B97F4A7C15
	z := state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return state, z ^ (z >> 31)
}
