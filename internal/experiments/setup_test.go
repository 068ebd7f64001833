package experiments

import (
	"bytes"
	"context"
	"testing"

	"rowsim/internal/checkpoint"
	"rowsim/internal/config"
	"rowsim/internal/sim"
	"rowsim/internal/workload"
)

// figureVariants is every variant the figure harnesses run.
func figureVariants() []Variant {
	eagerDir := VarEager
	eagerDir.Name, eagerDir.Detection = "eager-detect-RW+Dir", config.DetectRWDir
	vs := []Variant{VarEager, VarLazy, VarEagerFwd, eagerDir}
	vs = append(vs, Fig9Variants...)
	vs = append(vs, Fig13Variants...)
	for _, th := range Fig10Thresholds {
		v := VarDirUD
		v.Threshold = th
		vs = append(vs, v)
	}
	return vs
}

// encoded is the checkpoint encoding of a system's state: equal bytes
// mean equal state (checkpoint.Encode is a function of the snapshot).
func encoded(t *testing.T, s *sim.System, err error) []byte {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	b, err := checkpoint.Encode("k", s.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// plainSystem builds a cell the way every direct caller of sim.New
// does: generate, construct, Warm.
func plainSystem(cfg *config.Config, wl string, cores, instrs int, seed uint64) (*sim.System, error) {
	p := workload.MustGet(wl)
	return sim.New(cfg, workload.Generate(p, cores, instrs, seed), sim.WithWarmFilter(workload.WarmFilter(p)))
}

// TestWarmImageEqualsWarm: a system built from a warm image is, bit for
// bit, the system Warm builds — under every variant the figures use,
// whichever variant the image was taken under, and through the cache.
func TestWarmImageEqualsWarm(t *testing.T) {
	const cores, instrs, seed = 8, 1500, 1
	variants := figureVariants()
	for _, wl := range []string{"canneal", "sps"} { // canneal: cold-atomics warm filter
		p := workload.MustGet(wl)
		progs := workload.Generate(p, cores, instrs, seed)
		filter := sim.WithWarmFilter(workload.WarmFilter(p))
		imageUnder := func(v Variant) *sim.WarmImage {
			s, err := sim.New(v.Config(cores), progs, filter)
			if err != nil {
				t.Fatal(err)
			}
			return s.WarmImage()
		}
		first, last := imageUnder(variants[0]), imageUnder(variants[len(variants)-1])
		setup := NewSetup(1)
		for _, v := range variants {
			s, err := plainSystem(v.Config(cores), wl, cores, instrs, seed)
			want := encoded(t, s, err)
			for name, img := range map[string]*sim.WarmImage{variants[0].Name: first, variants[len(variants)-1].Name: last} {
				s, err := sim.New(v.Config(cores), progs, filter, sim.WithWarmImage(img))
				if got := encoded(t, s, err); !bytes.Equal(got, want) {
					t.Errorf("%s under %s: image taken under %s differs from Warm", wl, v.Name, name)
				}
			}
			s, err = setup.System(context.Background(), v.Config(cores), p, cores, instrs, seed)
			if got := encoded(t, s, err); !bytes.Equal(got, want) {
				t.Errorf("%s under %s: Setup.System differs from Generate + sim.New", wl, v.Name)
			}
		}
		if n, want := setup.Stats(), (SetupStats{Generated: 1, Warmed: 1, Reused: uint64(len(variants) - 1)}); n != want {
			t.Errorf("%s: %v, want %v", wl, n, want)
		}
	}
}

// TestSetupIsolation: running a system built from a cached set leaves
// the set untouched, and a configuration the image does not fit misses.
func TestSetupIsolation(t *testing.T) {
	const wl, cores, instrs, seed = "sps", 8, 1500, 1
	p := workload.MustGet(wl)
	setup := NewSetup(1)
	cfg := VarDirUD.Config(cores)
	s, err := plainSystem(cfg, wl, cores, instrs, seed)
	want := encoded(t, s, err)
	wantRes := s.MustRun()

	for i := 0; i < 3; i++ { // the leader, then two systems from its image
		s, err := setup.System(context.Background(), cfg, p, cores, instrs, seed)
		if got := encoded(t, s, err); !bytes.Equal(got, want) {
			t.Fatalf("build %d: state before the run differs from a plain build", i)
		}
		if res := s.MustRun(); res != wantRes {
			t.Fatalf("build %d: result differs from a plain build\n got %+v\nwant %+v", i, res, wantRes)
		}
	}
	if n, want := setup.Stats(), (SetupStats{Generated: 1, Warmed: 1, Reused: 2}); n != want {
		t.Fatalf("%v, want %v", n, want)
	}

	// Another geometry or core count is another image: a miss that is
	// warmed afresh over the same programs, never the image that does
	// not fit.
	smallL2, moreCores := VarDirUD.Config(cores), VarDirUD.Config(2*cores)
	smallL2.Mem.L2.SizeBytes /= 4
	for i, other := range []*config.Config{smallL2, moreCores} {
		s, err := plainSystem(other, wl, cores, instrs, seed)
		want := encoded(t, s, err)
		s, err = setup.System(context.Background(), other, p, cores, instrs, seed)
		if got := encoded(t, s, err); !bytes.Equal(got, want) {
			t.Errorf("config %d: differs from a plain build", i)
		}
		if n, want := setup.Stats(), (SetupStats{Generated: 1, Warmed: uint64(2 + i), Reused: 2, Evicted: uint64(i)}); n != want {
			t.Errorf("config %d: %v, want a miss: %v", i, n, want)
		}
	}
	// And sim.New itself refuses an image that does not fit.
	s, err = sim.New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, other := range []*config.Config{smallL2, moreCores} {
		if _, err := sim.New(other, nil, sim.WithWarmImage(s.WarmImage())); err == nil {
			t.Errorf("config %d: sim.New accepted an image of another geometry", i)
		}
	}
}

// TestSetupGeneratesOnceAndEvicts: however many workers want a trace
// set, it is generated and warmed once; programs are kept for jobs sets
// and images for jobs+1, least recently used first out. Run under -race
// in CI: the in-flight wait is this cache's only concurrency.
func TestSetupGeneratesOnceAndEvicts(t *testing.T) {
	r := NewRunner(parallelTestOptions()) // two workloads
	r.SetJobs(4)
	Fig9(r)
	cells := uint64(2 * (1 + len(Fig9Variants)))
	if n, want := r.SetupStats(), (SetupStats{Generated: 2, Warmed: 2, Reused: cells - 2}); n != want {
		t.Errorf("jobs=4, 2 workloads: %v, want %v", n, want)
	}

	// Sequential: room for one set of programs and two images. Coming
	// back to a workload finds its image and regenerates its programs.
	r = NewRunner(parallelTestOptions())
	Fig1(r)
	Fig12(r)
	if n, want := r.SetupStats(), (SetupStats{Generated: 4, Warmed: 2, Reused: 6}); n != want {
		t.Errorf("jobs=1, 2 workloads: %v, want %v", n, want)
	}

	opt := parallelTestOptions()
	opt.Workloads = []string{"sps", "canneal", "pc"}
	r = NewRunner(opt)
	Fig1(r)  // sps, canneal, pc (evicts sps)
	Fig12(r) // sps (evicts canneal), canneal (evicts pc), pc (evicts sps)
	if n, want := r.SetupStats(), (SetupStats{Generated: 6, Warmed: 6, Reused: 6, Evicted: 4}); n != want {
		t.Errorf("jobs=1, 3 workloads: %v, want %v", n, want)
	}
}

// TestSetupLeaderFailureIsNotShared: a cell whose build fails publishes
// no image; the next cell over the same traces warms its own.
func TestSetupLeaderFailureIsNotShared(t *testing.T) {
	const cores, instrs, seed = 2, 300, 1
	p := workload.MustGet("sps")
	setup := NewSetup(1)
	bad := VarEager.Config(cores)
	bad.Core.AQSize = 0
	if _, err := setup.System(context.Background(), bad, p, cores, instrs, seed); err == nil {
		t.Fatal("invalid configuration built")
	}
	if n, want := setup.Stats(), (SetupStats{Generated: 1}); n != want {
		t.Fatalf("after a failed leader: %v, want %v", n, want)
	}
	good := VarEager.Config(cores)
	s, err := plainSystem(good, "sps", cores, instrs, seed)
	want := encoded(t, s, err)
	s, err = setup.System(context.Background(), good, p, cores, instrs, seed)
	if got := encoded(t, s, err); !bytes.Equal(got, want) {
		t.Fatal("the cell after a failed leader differs from a plain build")
	}
	if n, want := setup.Stats(), (SetupStats{Generated: 1, Warmed: 1}); n != want {
		t.Fatalf("%v, want %v", n, want)
	}
}
