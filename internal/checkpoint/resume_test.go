package checkpoint

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"rowsim/internal/config"
	"rowsim/internal/faults"
	"rowsim/internal/sim"
	"rowsim/internal/workload"
)

// TestResumeEndToEnd is the on-disk half of the crash-recovery
// cross-check (the in-memory half lives in internal/sim): for three
// torture-style configurations, a run that checkpoints to disk, is
// "killed", and resumes in a fresh process image finishes with exactly
// the Result of an uninterrupted run — and when the newest checkpoint
// file is corrupted, resume falls back to the previous one and still
// converges to the same end state.
func TestResumeEndToEnd(t *testing.T) {
	cases := []struct {
		name     string
		policy   config.AtomicPolicy
		workload string
		faults   *faults.Config
	}{
		{name: "eager_pc", policy: config.PolicyEager, workload: "pc"},
		{name: "row_sps", policy: config.PolicyRoW, workload: "sps"},
		{name: "row_sps_jitter", policy: config.PolicyRoW, workload: "sps",
			faults: &faults.Config{Seed: 9, JitterProb: 0.3, JitterMax: 12}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := config.Default()
			cfg.NumCores = 2
			cfg.Policy = tc.policy
			cfg.MaxCycles = 50_000_000
			p := workload.MustGet(tc.workload)
			// Long enough that every case crosses several checkpoint
			// intervals (rotation needs at least two saves for a .prev).
			const instrs, seed = 6000, 7
			const every = 1024

			build := func(opts ...sim.Option) *sim.System {
				progs := workload.Generate(p, cfg.NumCores, instrs, seed)
				opts = append(opts, sim.WithWarmFilter(workload.WarmFilter(p)))
				if tc.faults != nil {
					opts = append(opts, sim.WithFaults(*tc.faults))
				}
				s, err := sim.New(cfg, progs, opts...)
				if err != nil {
					t.Fatal(err)
				}
				return s
			}

			// Ground truth: one uninterrupted run.
			want, err := build().Run()
			if err != nil {
				t.Fatal(err)
			}

			// Checkpointed run: persist every interval. The run is then
			// "killed" — the system is discarded; only the files remain.
			path := filepath.Join(t.TempDir(), "run.ckpt")
			const key = "resume-e2e"
			ck := build(sim.WithCheckpoint(every, Saver(path, key)))
			if _, err := ck.Run(); err != nil {
				t.Fatal(err)
			}
			if _, err := os.Stat(path); err != nil {
				t.Fatalf("no checkpoint was written: %v", err)
			}

			// Resume in a fresh system from the newest checkpoint.
			s2 := build()
			cyc, ok, err := Resume(s2, path, key)
			if err != nil || !ok {
				t.Fatalf("Resume: ok=%v err=%v", ok, err)
			}
			if cyc == 0 {
				t.Fatal("resumed at cycle 0")
			}
			got, err := s2.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("resumed run diverges from uninterrupted run:\nwant %+v\ngot  %+v", want, got)
			}

			// Corrupt the newest checkpoint: resume must fall back to the
			// previous one and still converge to the same end state.
			if _, err := os.Stat(path + PrevSuffix); err != nil {
				t.Fatalf("no previous checkpoint to fall back to: %v", err)
			}
			if err := os.WriteFile(path, []byte("torn to shreds"), 0o644); err != nil {
				t.Fatal(err)
			}
			s3 := build()
			cyc3, ok, err := Resume(s3, path, key)
			if err != nil || !ok {
				t.Fatalf("fallback Resume: ok=%v err=%v", ok, err)
			}
			if cyc3 >= cyc {
				t.Fatalf("fallback resumed at cycle %d, want earlier than the corrupted primary's %d", cyc3, cyc)
			}
			got3, err := s3.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got3, want) {
				t.Errorf("fallback-resumed run diverges from uninterrupted run:\nwant %+v\ngot  %+v", want, got3)
			}
		})
	}
}

// TestResumeRefusesSnapshotThatDoesNotFit: a checkpoint that decodes
// but holds state the system cannot take is an error from Resume, not
// a panic, and a hard one from ResumeLenient and Run, which never run
// the half-restored system.
func TestResumeRefusesSnapshotThatDoesNotFit(t *testing.T) {
	const key = "0123456789abcdef-spoiled"
	for _, tc := range []struct {
		name  string
		spoil func(*sim.SysSnap)
	}{
		{"L1 line past the end of its array", func(s *sim.SysSnap) { s.Caches[0].L1.Pos[0] = 1 << 30 }},
		{"directory columns of unequal length", func(s *sim.SysSnap) {
			d := s.Dirs[0]
			d.Owner = d.Owner[:len(d.Owner)-1]
		}},
		{"directory line listed twice", func(s *sim.SysSnap) { s.Dirs[0].Line[1] = s.Dirs[0].Line[0] }},
		{"directory line owned by core 1000", func(s *sim.SysSnap) { s.Dirs[0].Owner[0] = 1000 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snap := realSnap(t)
			tc.spoil(snap)
			dir := t.TempDir()
			path := Path(dir, key)
			if err := Save(path, key, snap); err != nil {
				t.Fatal(err)
			}
			if _, ok, err := Resume(realSystem(t), path, key); err == nil || ok {
				t.Fatalf("Resume: ok=%v err=%v, want an error", ok, err)
			}
			if _, ok, warn, err := ResumeLenient(realSystem(t), path, key); err == nil || ok || warn != nil {
				t.Fatalf("ResumeLenient: ok=%v warn=%v err=%v, want a hard error", ok, warn, err)
			}
			build := func(opts ...sim.Option) (*sim.System, error) { return realSystem(t), nil }
			if _, err := Run(context.Background(), dir, 0, key, build, nil); err == nil {
				t.Fatal("Run ran a system its checkpoint did not fit")
			}
		})
	}
}
