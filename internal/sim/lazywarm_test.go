package sim

import (
	"context"
	"reflect"
	"testing"

	"rowsim/internal/config"
	"rowsim/internal/trace"
	"rowsim/internal/workload"
)

// warmCase is the system the warm-contract tests build: 4-core
// canneal, whose warm filter keeps its atomic region cold, so the
// filter shapes what the warm installs.
func warmCase(t *testing.T) (*config.Config, []trace.Program, Option) {
	t.Helper()
	cfg := config.Default()
	cfg.NumCores = 4
	cfg.MaxCycles = 50_000_000
	p := workload.MustGet("canneal")
	return cfg, workload.Generate(p, cfg.NumCores, 3000, 5), WithWarmFilter(workload.WarmFilter(p))
}

// memState reads every cache and bank straight from the fields, so
// reading it runs no deferred warm.
func memState(s *System) []any {
	var out []any
	for _, pc := range s.caches {
		out = append(out, pc.Snapshot())
	}
	for _, d := range s.dirs {
		out = append(out, d.Snapshot())
	}
	return out
}

// TestWarmRunsAtFirstUse: each way of reading or advancing a system
// New built warm observes what it would on a system built cold and
// then warmed by an explicit Warm, as rowperf's probe builds one, and
// leaves the caches and banks as that system's. So does a system built
// from a warm image.
func TestWarmRunsAtFirstUse(t *testing.T) {
	cfg, progs, filter := warmCase(t)
	build := func(t *testing.T, cold bool, opts ...Option) *System {
		c := *cfg
		c.WarmCaches = !cold
		s, err := New(&c, progs, append(opts, filter)...)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	img := build(t, false).WarmImage()
	for _, tc := range []struct {
		name    string
		trigger func(t *testing.T, s *System) any
	}{
		{"Run", func(t *testing.T, s *System) any { return s.MustRun() }},
		{"RunCtx", func(t *testing.T, s *System) any {
			r, err := s.RunCtx(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			return r
		}},
		{"Snapshot", func(t *testing.T, s *System) any { return s.Snapshot() }},
		{"WarmImage", func(t *testing.T, s *System) any { return s.WarmImage() }},
		{"Quiesce", func(t *testing.T, s *System) any { return s.Quiesce() }},
		{"Cores", func(t *testing.T, s *System) any {
			var out []any
			for _, c := range s.Cores() {
				out = append(out, c.Snapshot())
			}
			return out
		}},
		{"Caches", func(t *testing.T, s *System) any {
			var out []any
			for _, pc := range s.Caches() {
				out = append(out, pc.Snapshot())
			}
			return out
		}},
		{"Directories", func(t *testing.T, s *System) any {
			var out []any
			for _, d := range s.Directories() {
				out = append(out, d.Snapshot())
			}
			return out
		}},
		{"Warm", func(t *testing.T, s *System) any {
			s.Warm(nil) // runs the deferred warm, then warms nothing
			return nil
		}},
		{"lock-step oracle", func(t *testing.T, s *System) any { return lockstepOracle(t, s).SchedNormalized() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref := build(t, true)
			ref.Warm(progs)
			want := tc.trigger(t, ref)
			for name, s := range map[string]*System{
				"warm":  build(t, false),
				"image": build(t, false, WithWarmImage(img)),
			} {
				if !s.warmDue {
					t.Fatalf("%s: New warmed the system; it should only record the warm", name)
				}
				if got := tc.trigger(t, s); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: %s observes\n%+v\nwant (cold, then Warm)\n%+v", name, tc.name, got, want)
				}
				if s.warmDue {
					t.Errorf("%s: the warm is still due after %s", name, tc.name)
				}
				if !reflect.DeepEqual(memState(s), memState(ref)) {
					t.Errorf("%s: caches and banks after %s differ from the cold-then-Warm system's", name, tc.name)
				}
			}
		})
	}
}

// TestRestoredSystemNeverWarms: a system RestoreSnap rewinds before
// anything reads it drops its deferred warm. Its warm filter fails the
// test if the warm ever runs; a system built from a warm image has no
// filter to ask, and would show a restored image in its result. Both
// resumed runs must end as the uninterrupted one does.
func TestRestoredSystemNeverWarms(t *testing.T) {
	cfg, progs, filter := warmCase(t)
	var snaps []*SysSnap
	ckpt := WithCheckpoint(1024, func(_ uint64, snap *SysSnap) error {
		snaps = append(snaps, snap)
		return nil
	})
	first, err := New(cfg, progs, filter, ckpt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := first.Run()
	if err != nil || len(snaps) < 2 {
		t.Fatalf("%d snapshots (err %v); want a mid-run one", len(snaps), err)
	}
	mid := snaps[len(snaps)/2]
	img := first.WarmImage() // any image: it must never be restored
	for name, opt := range map[string]Option{
		"filter": WithWarmFilter(func(int, uint64) bool {
			t.Fatal("a restored system warmed its caches")
			return false
		}),
		"image": WithWarmImage(img),
	} {
		s, err := New(cfg, progs, opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.RestoreSnap(mid); err != nil {
			t.Fatal(err)
		}
		got, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: resumed run diverges from the uninterrupted one:\n got %+v\nwant %+v", name, got, want)
		}
		if err := s.Quiesce(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
