package predictor

import (
	"testing"

	"rowsim/internal/xrand"
)

// TestBranchBiasedConverges checks that a strongly biased branch is
// predicted correctly after warm-up.
func TestBranchBiasedConverges(t *testing.T) {
	b := NewBranch(12)
	rng := xrand.New(7)
	var wrong int
	const n = 10000
	for i := 0; i < n; i++ {
		taken := rng.Bool(0.97)
		if b.PredictAndTrain(0x400100, taken) {
			wrong++
		}
	}
	if rate := float64(wrong) / n; rate > 0.10 {
		t.Fatalf("biased branch mispredict rate %.2f, want <= 0.10", rate)
	}
}

// TestBranchAlternatingPattern checks that gshare captures a strict
// alternation, which bimodal alone cannot.
func TestBranchAlternatingPattern(t *testing.T) {
	b := NewBranch(12)
	var wrong int
	const n = 4000
	for i := 0; i < n; i++ {
		taken := i%2 == 0
		if b.PredictAndTrain(0x400200, taken) {
			wrong++
		}
	}
	if rate := float64(wrong) / n; rate > 0.10 {
		t.Fatalf("alternating branch mispredict rate %.2f, want <= 0.10", rate)
	}
}

// TestBranchMixedSites models the workload generator's branch
// population: mostly biased sites plus some random ones, interleaved.
func TestBranchMixedSites(t *testing.T) {
	b := NewBranch(12)
	rng := xrand.New(99)
	type siteT struct {
		pc   uint64
		bias float64
	}
	var sites []siteT
	for i := 0; i < 200; i++ {
		bias := 0.97
		if i%12 == 0 {
			bias = 0.5
		}
		sites = append(sites, siteT{pc: 0x400000 + uint64(i)*4, bias: bias})
	}
	var wrong, total int
	for sweep := 0; sweep < 100; sweep++ {
		for _, s := range sites {
			taken := rng.Bool(s.bias)
			if b.PredictAndTrain(s.pc, taken) {
				wrong++
			}
			total++
		}
	}
	rate := float64(wrong) / float64(total)
	// ~1/12 of sites are coin flips: floor is about 4-5% plus noise
	// from history pollution.
	if rate > 0.15 {
		t.Fatalf("mixed-site mispredict rate %.2f, want <= 0.15", rate)
	}
	t.Logf("mixed-site mispredict rate: %.3f", rate)
}
