package sim

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"rowsim/internal/config"
	"rowsim/internal/core"
	"rowsim/internal/faults"
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

// mustGob encodes v with encoding/gob, the checkpoint body's codec.
func mustGob(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// mustUngob decodes mustGob's bytes into v.
func mustUngob(t *testing.T, b []byte, v any) {
	t.Helper()
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotResumeByteIdentical is the core checkpoint correctness
// property at the in-memory level: capture a snapshot mid-run, rebuild
// a fresh system from scratch (regenerated programs), restore, resume
// — the final Result and the final full-system snapshot must be
// byte-identical to the uninterrupted run's.
func TestSnapshotResumeByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy config.AtomicPolicy
		wl     string
		faults faults.Config
	}{
		{name: "row_sps", policy: config.PolicyRoW, wl: "sps"},
		{name: "eager_pc", policy: config.PolicyEager, wl: "pc"},
		{name: "row_sps_jitter", policy: config.PolicyRoW, wl: "sps",
			faults: faults.Config{Seed: 9, JitterProb: 0.3, JitterMax: 12}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := snapCfg(tc.policy)
			p := workload.MustGet(tc.wl)
			build := func() *System {
				progs := workload.Generate(p, cfg.NumCores, 6000, 11)
				opts := []Option{WithWarmFilter(workload.WarmFilter(p))}
				if tc.faults != (faults.Config{}) {
					opts = append(opts, WithFaults(tc.faults))
				}
				s, err := New(cfg, progs, opts...)
				if err != nil {
					t.Fatal(err)
				}
				return s
			}

			wantRes, wantSnap := runToEnd(t, build())

			// Second run: capture snapshots at a cadence and keep the
			// middle one, so the resume exercises genuinely in-flight
			// state (non-empty ROBs, MSHRs, mesh traffic).
			var snaps []SysSnap
			s := build()
			s.ckptEvery = 2048
			s.ckptFn = func(cycle uint64, snap *SysSnap) error {
				snaps = append(snaps, *snap)
				return nil
			}
			midRes, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(midRes, wantRes) {
				t.Fatalf("checkpointing perturbed the run:\n got %+v\nwant %+v", midRes, wantRes)
			}
			if len(snaps) < 2 {
				t.Fatalf("expected at least 2 checkpoints, got %d (run too short for the cadence?)", len(snaps))
			}
			mid := snaps[len(snaps)/2]

			// Round-trip the snapshot through gob first: the on-disk
			// checkpoint stores exactly this encoding, so the resumed
			// state must survive serialization, not just copying.
			var decoded SysSnap
			mustUngob(t, mustGob(t, &mid), &decoded)

			resumed := build()
			if err := resumed.RestoreSnap(&decoded); err != nil {
				t.Fatal(err)
			}
			if resumed.Cycle() != mid.Cycle {
				t.Fatalf("restored cycle %d, snapshot says %d", resumed.Cycle(), mid.Cycle)
			}
			gotRes, gotSnap := runToEnd(t, resumed)

			if !reflect.DeepEqual(gotRes, wantRes) {
				t.Fatalf("resumed result diverged:\n got %+v\nwant %+v", gotRes, wantRes)
			}
			gotB, wantB := mustGob(t, gotSnap), mustGob(t, wantSnap)
			if string(gotB) != string(wantB) {
				t.Fatalf("resumed final state diverged from uninterrupted run (snapshots differ, %d vs %d bytes)", len(gotB), len(wantB))
			}
		})
	}
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
