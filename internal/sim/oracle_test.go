package sim

import (
	"testing"

	"rowsim/internal/config"
	"rowsim/internal/workload"
)

// lockstepOracle runs s to completion without System.run: the plainest
// lock-step loop over the components New assembled. Every bank, cache
// and core is visited every cycle; no HasMail, no NextEventAt, no
// SetNow, no postCycle. It shares nothing with the run loop but the
// phase order, so a Result equal to Run's says the loop's two modes
// both skip only what does nothing. It starts, as Run does, by running
// the warm New deferred.
func lockstepOracle(t *testing.T, s *System) Result {
	t.Helper()
	s.settle()
	for {
		s.cycle++
		cyc := s.cycle
		if cyc > s.cfg.MaxCycles {
			t.Fatalf("oracle still running at cycle %d", cyc)
		}
		s.mesh.Tick(cyc)
		for b, d := range s.dirs {
			d.SetCycle(cyc)
			for _, m := range s.mesh.Drain(s.cfg.NumCores + b) {
				d.Handle(m)
			}
		}
		for i, pc := range s.caches {
			if msgs := s.mesh.Drain(i); msgs != nil {
				pc.Deliver(msgs)
			}
			pc.Tick(cyc)
		}
		done := true
		for _, c := range s.cores {
			c.Tick(cyc)
			done = done && c.Done()
		}
		if done {
			break
		}
	}
	if pe := s.sink.Err(); pe != nil {
		t.Fatal(pe)
	}
	return s.collect()
}

// TestRunMatchesLockstepOracle holds Run under both schedulers to the
// oracle.
func TestRunMatchesLockstepOracle(t *testing.T) {
	for _, tc := range schedMatrix {
		t.Run(tc.name, func(t *testing.T) {
			want := lockstepOracle(t, tc.build(t, 3000)).SchedNormalized()
			for _, sched := range []Scheduler{SchedEvent, SchedCycle} {
				got := tc.build(t, 3000, WithScheduler(sched)).MustRun()
				if got.SchedNormalized() != want {
					t.Errorf("Run under %v diverges from the oracle:\n got %+v\nwant %+v", sched, got, want)
				}
			}
		})
	}
}

// TestRunMatchesLockstepOracle64 fills every bit of the run loop's
// core masks: 64 cores, the most config.Validate allows, so core 63
// sits in bit 63. The cross-checked run must match too.
func TestRunMatchesLockstepOracle64(t *testing.T) {
	build := func(opts ...Option) *System {
		cfg := config.Default()
		cfg.NumCores = 64
		cfg.MaxCycles = 5_000_000
		p := workload.MustGet("cq")
		progs := workload.Generate(p, cfg.NumCores, 300, 11)
		s, err := New(cfg, progs, append(opts, WithWarmFilter(workload.WarmFilter(p)))...)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	want := lockstepOracle(t, build()).SchedNormalized()
	for name, opts := range map[string][]Option{
		"event":       nil,
		"cross-check": {WithCrossCheck()},
	} {
		s := build(opts...)
		got := s.MustRun()
		if got.SchedNormalized() != want {
			t.Errorf("Run (%s) diverges from the oracle:\n got %+v\nwant %+v", name, got, want)
		}
		if c := s.cores[63]; !c.Done() || c.Stats.Committed != 300 {
			t.Errorf("%s: core 63 done=%v committed %d of 300", name, c.Done(), c.Stats.Committed)
		}
	}
}
