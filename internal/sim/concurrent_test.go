package sim_test

import (
	"sync"
	"testing"

	"rowsim/internal/config"
	"rowsim/internal/sim"
	"rowsim/internal/workload"
)

func plainRun(wl string, seed uint64) (sim.Result, error) {
	p := workload.MustGet(wl)
	progs := workload.Generate(p, 4, 1500, seed)
	cfg := config.Default()
	cfg.NumCores = 4
	cfg.MaxCycles = 50_000_000
	s, err := sim.New(cfg, progs, sim.WithWarmFilter(workload.WarmFilter(p)))
	if err != nil {
		return sim.Result{}, err
	}
	return s.Run()
}

// TestCrossCheckMatchesPlainRun pins the skip invariant from the
// outside: a run with the cross-check replays (which force every
// skipped component to execute) must produce the identical result as
// the production skipping loop. Combined with the in-loop assertions,
// this shows skipped components really are no-ops.
func TestCrossCheckMatchesPlainRun(t *testing.T) {
	for _, wl := range []string{"sps", "canneal"} {
		plain, err := plainRun(wl, 1)
		if err != nil {
			t.Fatal(err)
		}
		p := workload.MustGet(wl)
		progs := workload.Generate(p, 4, 1500, 1)
		cfg := config.Default()
		cfg.NumCores = 4
		cfg.MaxCycles = 50_000_000
		s, err := sim.New(cfg, progs, sim.WithWarmFilter(workload.WarmFilter(p)), sim.WithCrossCheck())
		if err != nil {
			t.Fatal(err)
		}
		checked := s.MustRun()
		// The cross-check visits every cycle by design, so only the
		// visited-cycle bookkeeping may differ from the skipping run.
		if plain.SchedNormalized() != checked.SchedNormalized() {
			t.Fatalf("%s: cross-checked run diverges from plain run:\nplain:   %+v\nchecked: %+v", wl, plain, checked)
		}
	}
}

// TestConcurrentSystemsShareNothing hammers two (and more) Systems
// running concurrently and asserts every run reproduces the sequential
// reference bit-for-bit: any state shared between independent
// simulations shows up here as a diverging result, and as a data race
// under -race.
func TestConcurrentSystemsShareNothing(t *testing.T) {
	workloads := []string{"sps", "canneal", "cq"}
	ref := make(map[string]sim.Result)
	for _, wl := range workloads {
		r, err := plainRun(wl, 1)
		if err != nil {
			t.Fatal(err)
		}
		ref[wl] = r
	}
	const rounds = 3
	var wg sync.WaitGroup
	errs := make(chan string, len(workloads)*rounds)
	for round := 0; round < rounds; round++ {
		for _, wl := range workloads {
			wg.Add(1)
			go func(wl string) {
				defer wg.Done()
				got, err := plainRun(wl, 1)
				if err != nil {
					errs <- wl + ": " + err.Error()
					return
				}
				if got != ref[wl] {
					errs <- wl + ": result diverged"
				}
			}(wl)
		}
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Errorf("concurrent run of %s from sequential reference (state shared across systems?)", msg)
	}
}
