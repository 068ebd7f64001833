package sim

import (
	"reflect"
	"testing"

	"rowsim/internal/config"
	"rowsim/internal/core"
	"rowsim/internal/workload"
)

// snapCfg builds the reference configuration the round-trip tests run:
// small enough to finish fast, RoW so every optional structure (AQ,
// contention predictor) is live.
func snapCfg(policy config.AtomicPolicy) *config.Config {
	cfg := config.Default()
	cfg.NumCores = 4
	cfg.Policy = policy
	cfg.MaxCycles = 50_000_000
	return cfg
}

// runToEnd runs the system and returns the result plus the final
// system snapshot (the strongest equality witness: every counter and
// table, not just the aggregated Result).
func runToEnd(t *testing.T, s *System) (Result, *SysSnap) {
	t.Helper()
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r, s.Snapshot()
}

// TestRestoreSnapShapeMismatch: restoring into a differently shaped
// system must fail cleanly, not corrupt state or panic.
func TestRestoreSnapShapeMismatch(t *testing.T) {
	cfg := snapCfg(config.PolicyRoW)
	p := workload.MustGet("sps")
	s, err := New(cfg, workload.Generate(p, cfg.NumCores, 500, 1))
	if err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()

	other := snapCfg(config.PolicyRoW)
	other.NumCores = 2
	s2, err := New(other, workload.Generate(p, other.NumCores, 500, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.RestoreSnap(snap); err == nil {
		t.Fatal("restoring a 4-core snapshot into a 2-core system succeeded")
	}

	// Fault-injector state into a faultless system must also refuse.
	s3, err := New(cfg, workload.Generate(p, cfg.NumCores, 500, 1))
	if err != nil {
		t.Fatal(err)
	}
	snap.Faults.RNGState = 42
	if err := s3.RestoreSnap(snap); err == nil {
		t.Fatal("restoring injector state into a faultless system succeeded")
	}
}

// TestRestoreDropsStaleDepRefs: a checkpoint's dependence refs are
// relinked by Restore, and a ref whose slot does not hold its id, as a
// snapshot taken before flushes cut the lists can carry, is dropped:
// the resumed run ends as an uninterrupted one does.
func TestRestoreDropsStaleDepRefs(t *testing.T) {
	cfg := snapCfg(config.PolicyRoW)
	p := workload.MustGet("sps")
	build := func() *System {
		s, err := New(cfg, workload.Generate(p, cfg.NumCores, 6000, 11), WithWarmFilter(workload.WarmFilter(p)))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	want, _ := runToEnd(t, build())

	s := build()
	var mid *SysSnap
	s.ckptEvery = 2048
	s.ckptFn = func(cycle uint64, snap *SysSnap) error {
		if mid == nil && cycle >= 4096 {
			mid = snap
		}
		return nil
	}
	if _, err := s.Run(); err != nil || mid == nil {
		t.Fatalf("no mid-run snapshot (err %v)", err)
	}
	stale := 0
	for _, cs := range mid.Cores {
		for i := range cs.ROB {
			if e := &cs.ROB[i]; e.Valid && len(e.Deps) > 0 {
				d := e.Deps[0]
				e.Deps = append([]core.DepRef{{Slot: d.Slot, ID: d.ID - 1}, {Slot: 1 << 20, ID: d.ID}}, e.Deps...)
				stale++
			}
		}
	}
	if stale == 0 {
		t.Fatal("no ROB entry in the snapshot has a dependent")
	}
	resumed := build()
	if err := resumed.RestoreSnap(mid); err != nil {
		t.Fatal(err)
	}
	if got, _ := runToEnd(t, resumed); !reflect.DeepEqual(got, want) {
		t.Fatalf("run resumed from stale refs diverged:\n got %+v\nwant %+v", got, want)
	}
}
