package checkpoint

import (
	"context"
	"errors"
	"os"
	"reflect"
	"testing"

	"rowsim/internal/config"
	"rowsim/internal/sim"
	"rowsim/internal/workload"
)

// pollCtx is a context whose Err turns context.Canceled at its nth
// poll. The run loop polls once per 1024 simulated cycles, so this
// cancels a run at a fixed simulated cycle, not at a wall-clock time.
type pollCtx struct {
	context.Context
	left int
}

func (c *pollCtx) Err() error {
	if c.left--; c.left < 0 {
		return context.Canceled
	}
	return nil
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRunDurableAttempt is the contract of the one durable attempt
// (Run) and of what its caller does with the lineage afterwards (Remove
// it when the outcome is terminal, keep it when the run was canceled),
// over every state a job can find its lineage in.
func TestRunDurableAttempt(t *testing.T) {
	const (
		every = 1024
		key   = "0123456789abcdef-this-run"
		other = "0123456789abcdef-some-other-run" // same file name, different run
	)
	cfg := config.Default()
	cfg.NumCores = 2
	cfg.Policy = config.PolicyRoW
	cfg.MaxCycles = 50_000_000
	p := workload.MustGet("sps")
	build := func(opts ...sim.Option) (*sim.System, error) {
		return sim.New(cfg, workload.Generate(p, cfg.NumCores, 6000, 7), append(opts, sim.WithWarmFilter(workload.WarmFilter(p)))...)
	}
	s, err := build()
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}

	// interrupted leaves the lineage a killed process would: a run
	// under wkey canceled at its fourth poll, two generations on disk.
	interrupted := func(t *testing.T, dir, wkey string) {
		t.Helper()
		_, err := Run(&pollCtx{Context: context.Background(), left: 4}, dir, every, wkey, build, nil)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("interrupted run: %v, want a cancellation", err)
		}
		for _, f := range []string{Path(dir, wkey), Path(dir, wkey) + PrevSuffix} {
			if _, err := os.Stat(f); err != nil {
				t.Fatalf("canceled run did not keep its lineage: %v", err)
			}
		}
	}
	shred := func(t *testing.T, files ...string) {
		t.Helper()
		for _, f := range files {
			if err := os.WriteFile(f, []byte("torn to shreds"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}

	cases := []struct {
		name     string
		dir      bool // checkpointing on
		setup    func(t *testing.T, dir string)
		resumed  bool // found hears a cycle > 0
		warned   bool // found hears a *CorruptError
		stale    bool // found hears a version *MismatchError
		mismatch bool // the attempt fails with *MismatchError
	}{
		{name: "checkpointing off"},
		{name: "no checkpoint", dir: true},
		{name: "valid checkpoint", dir: true, resumed: true,
			setup: func(t *testing.T, dir string) { interrupted(t, dir, key) }},
		{name: "primary corrupt", dir: true, resumed: true,
			setup: func(t *testing.T, dir string) { interrupted(t, dir, key); shred(t, Path(dir, key)) }},
		{name: "both slots corrupt", dir: true, warned: true,
			setup: func(t *testing.T, dir string) {
				interrupted(t, dir, key)
				shred(t, Path(dir, key), Path(dir, key)+PrevSuffix)
			}},
		{name: "an older build's format", dir: true, stale: true,
			setup: func(t *testing.T, dir string) {
				// testdata/v2.ckpt is the last Version 2 build's
				// Encode("k", &sim.SysSnap{Cycle: 4096}): the version is
				// refused before the key is looked at.
				if err := os.WriteFile(Path(dir, key), mustRead(t, "testdata/v2.ckpt"), 0o644); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "a Version 3 file", dir: true, stale: true,
			setup: func(t *testing.T, dir string) {
				// The same snapshot as the last Version 3 build wrote it,
				// one struct per sram line and directory entry.
				if err := os.WriteFile(Path(dir, key), mustRead(t, "testdata/v3.ckpt"), 0o644); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "a Version 4 file", dir: true, stale: true,
			setup: func(t *testing.T, dir string) {
				// The same snapshot as the last Version 4 build wrote it,
				// whose core snapshot held the lazy and order wait lists.
				if err := os.WriteFile(Path(dir, key), mustRead(t, "testdata/v4.ckpt"), 0o644); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "a Version 5 file", dir: true, stale: true,
			setup: func(t *testing.T, dir string) {
				// The same snapshot as the last Version 5 build wrote it,
				// whose core snapshot held five per-transition counters
				// and the lock state in both ROB and AQ entries.
				if err := os.WriteFile(Path(dir, key), mustRead(t, "testdata/v5.ckpt"), 0o644); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "a Version 6 file", dir: true, stale: true,
			setup: func(t *testing.T, dir string) {
				// The same snapshot as the last Version 6 build wrote it,
				// an encoding/gob body.
				if err := os.WriteFile(Path(dir, key), mustRead(t, "testdata/v6.ckpt"), 0o644); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "a Version 7 file", dir: true, stale: true,
			setup: func(t *testing.T, dir string) {
				// The same snapshot as the last Version 7 build wrote it,
				// whose caches, banks and cores still held far atomics.
				if err := os.WriteFile(Path(dir, key), mustRead(t, "testdata/v7.ckpt"), 0o644); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "another run's checkpoint", dir: true, mismatch: true,
			setup: func(t *testing.T, dir string) { interrupted(t, dir, other) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := ""
			if tc.dir {
				dir = t.TempDir()
			}
			if tc.setup != nil {
				tc.setup(t, dir)
			}
			var cycle uint64
			var warn error
			calls := 0
			got, err := Run(context.Background(), dir, every, key, build, func(c uint64, w error) { cycle, warn, calls = c, w, calls+1 })

			var me *MismatchError
			if tc.mismatch {
				if !errors.As(err, &me) {
					t.Fatalf("err = %v, want *MismatchError", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("result diverges from an uninterrupted run:\nwant %+v\ngot  %+v", want, got)
			}
			var ce *CorruptError
			switch {
			case tc.resumed && (calls != 1 || cycle == 0 || warn != nil):
				t.Errorf("found heard (cycle %d, warn %v) %d time(s), want one resume past cycle 0", cycle, warn, calls)
			case tc.warned && (calls != 1 || cycle != 0 || !errors.As(warn, &ce)):
				t.Errorf("found heard (cycle %d, warn %v) %d time(s), want one *CorruptError", cycle, warn, calls)
			case tc.stale && (calls != 1 || cycle != 0 || !errors.As(warn, &me) || me.Field != "version"):
				t.Errorf("found heard (cycle %d, warn %v) %d time(s), want one version *MismatchError", cycle, warn, calls)
			case !tc.resumed && !tc.warned && !tc.stale && calls != 0:
				t.Errorf("found heard (cycle %d, warn %v) on a fresh start", cycle, warn)
			}

			// The outcome is terminal: the caller removes the lineage,
			// abandoned temporary included.
			path := Path(dir, key)
			if !tc.dir {
				if path != "" || Remove(path) != nil {
					t.Fatalf("Path = %q, Remove = %v with checkpointing off", path, Remove(path))
				}
				return
			}
			if _, err := os.Stat(path); err != nil {
				t.Fatalf("completed run left no checkpoint to clean up: %v", err)
			}
			if tc.stale {
				// The run's saves rotated the old file out of both slots.
				for _, f := range []string{path, path + PrevSuffix} {
					if _, _, err := Decode(f, key, mustRead(t, f)); err != nil {
						t.Errorf("slot still unreadable after the run: %v", err)
					}
				}
			}
			shred(t, path+".tmp")
			if err := Remove(path); err != nil {
				t.Fatal(err)
			}
			if ents, _ := os.ReadDir(dir); len(ents) != 0 {
				t.Errorf("%d file(s) left after Remove, first %s", len(ents), ents[0].Name())
			}
		})
	}
}
