// Package xrand provides a small, fast, deterministic PRNG
// (SplitMix64) used by the workload generators. Determinism across
// runs and platforms matters more here than statistical strength: the
// same seed must always produce the same instruction trace so
// experiments are reproducible.
package xrand

import "math"

// RNG is a SplitMix64 pseudo-random number generator. The zero value
// is a valid generator seeded with 0.
type RNG struct {
	state uint64
}

// New returns a generator with the given seed.
func New(seed uint64) *RNG { return &RNG{state: seed} }

// State returns the generator's current internal state. Together with
// SetState it lets a checkpoint capture and later resume a stream
// mid-sequence: restoring the state replays exactly the numbers the
// original stream would have produced next.
func (r *RNG) State() uint64 { return r.state }

// SetState overwrites the generator's internal state (checkpoint
// restore). SetState(New(seed).State()) is equivalent to New(seed).
func (r *RNG) SetState(s uint64) { r.state = s }

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// Geometric returns a sample from a geometric-ish distribution with
// the given mean (minimum 1). Used for dependency distances and
// inter-arrival gaps.
//
// Each trial is Bool(1/mean) without the float: Float64's draw x/2^53
// is below p exactly when x is below p·2^53 (scaling by a power of two
// is exact), and an integer is below a real exactly when it is below
// the real's ceiling. So the draws, the result and the final state are
// those of the loop `for !r.Bool(p) && n < int(mean*8) { n++ }`.
func (r *RNG) Geometric(mean float64) int {
	if mean <= 1 {
		return 1
	}
	p := 1 / mean
	hit := uint64(math.Ceil(p * (1 << 53)))
	limit := int(mean * 8)
	n := 1
	for r.Uint64()>>11 >= hit && n < limit {
		n++
	}
	return n
}
