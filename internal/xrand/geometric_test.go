package xrand_test

import (
	"testing"

	"rowsim/internal/workload"
	"rowsim/internal/xrand"
)

// geometricFloat is Geometric as it was first written, one float
// comparison a trial: the reference the integer threshold must equal.
func geometricFloat(r *xrand.RNG, mean float64) int {
	if mean <= 1 {
		return 1
	}
	p := 1 / mean
	n := 1
	for !r.Bool(p) && n < int(mean*8) {
		n++
	}
	return n
}

// TestGeometricMatchesFloatLoop holds Geometric to the float loop over
// the means the generators use (the template's DepMeans span 1.5–12.5,
// and every registered SpinMean) from 10^5 states: the same n, and the
// RNG left in the same state.
func TestGeometricMatchesFloatLoop(t *testing.T) {
	means := []float64{1.5, 3, 6, 8, 10, 12.5}
	for _, name := range workload.Names() {
		if m := workload.MustGet(name).SpinMean; m != 0 {
			means = append(means, m)
		}
	}
	for _, mean := range means {
		seq := xrand.New(uint64(mean * 1e6))
		for i := 0; i < 100_000; i++ {
			state := seq.Uint64()
			a, b := xrand.New(state), xrand.New(state)
			if got, want := a.Geometric(mean), geometricFloat(b, mean); got != want || a.State() != b.State() {
				t.Fatalf("mean %v, state %#x: Geometric %d (state %#x), float loop %d (state %#x)",
					mean, state, got, a.State(), want, b.State())
			}
		}
	}
}
