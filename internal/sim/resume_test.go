package sim_test

import (
	"bytes"
	"reflect"
	"testing"

	"rowsim/internal/checkpoint"
	"rowsim/internal/config"
	"rowsim/internal/faults"
	"rowsim/internal/sim"
	"rowsim/internal/workload"
)

// The resume tests round-trip their snapshots through the checkpoint
// codec, which imports sim, so they live outside the package.

// resumeSystem builds 4-core wl under policy: 6,000 instructions a
// core, seed 11, warm, with fault injection when fc is set.
func resumeSystem(t *testing.T, policy config.AtomicPolicy, wl string, fc faults.Config, opts ...sim.Option) *sim.System {
	t.Helper()
	cfg := config.Default()
	cfg.NumCores = 4
	cfg.Policy = policy
	cfg.MaxCycles = 50_000_000
	p := workload.MustGet(wl)
	all := []sim.Option{sim.WithWarmFilter(workload.WarmFilter(p))}
	if fc != (faults.Config{}) {
		all = append(all, sim.WithFaults(fc))
	}
	s, err := sim.New(cfg, workload.Generate(p, cfg.NumCores, 6000, 11), append(all, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// encode is the checkpoint encoding of snap, which is a function of
// the state: equal bytes are equal snapshots.
func encode(t *testing.T, snap *sim.SysSnap) []byte {
	t.Helper()
	data, err := checkpoint.Encode("k", snap)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// viaCodec is snap as a checkpoint file brings it back.
func viaCodec(t *testing.T, data []byte) *sim.SysSnap {
	t.Helper()
	snap, _, err := checkpoint.Decode("x", "k", data)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// midSnap runs the system build makes with a checkpoint every 2,048
// cycles and returns the middle snapshot and the run's result.
func midSnap(t *testing.T, build func(...sim.Option) *sim.System) (*sim.SysSnap, sim.Result) {
	t.Helper()
	var snaps []*sim.SysSnap
	res, err := build(sim.WithCheckpoint(2048, func(_ uint64, snap *sim.SysSnap) error {
		snaps = append(snaps, snap)
		return nil
	})).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) < 2 {
		t.Fatalf("expected at least 2 checkpoints, got %d (run too short for the cadence?)", len(snaps))
	}
	return snaps[len(snaps)/2], res
}

// TestSnapshotResumeByteIdentical is the core checkpoint correctness
// property at the in-memory level: capture a snapshot mid-run, encode
// and decode it as a checkpoint file does, rebuild a fresh system from
// scratch (regenerated programs), restore, resume — the final Result
// and the final full-system snapshot must be byte-identical to the
// uninterrupted run's.
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
			build := func(opts ...sim.Option) *sim.System {
				return resumeSystem(t, tc.policy, tc.wl, tc.faults, opts...)
			}
			want := build()
			wantRes, err := want.Run()
			if err != nil {
				t.Fatal(err)
			}

			// The middle snapshot of a checkpointed run holds genuinely
			// in-flight state: non-empty ROBs, MSHRs, mesh traffic.
			mid, midRes := midSnap(t, build)
			if !reflect.DeepEqual(midRes, wantRes) {
				t.Fatalf("checkpointing perturbed the run:\n got %+v\nwant %+v", midRes, wantRes)
			}

			resumed := build()
			if err := resumed.RestoreSnap(viaCodec(t, encode(t, mid))); err != nil {
				t.Fatal(err)
			}
			if resumed.Cycle() != mid.Cycle {
				t.Fatalf("restored cycle %d, snapshot says %d", resumed.Cycle(), mid.Cycle)
			}
			gotRes, err := resumed.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotRes, wantRes) {
				t.Fatalf("resumed result diverged:\n got %+v\nwant %+v", gotRes, wantRes)
			}
			gotB, wantB := encode(t, resumed.Snapshot()), encode(t, want.Snapshot())
			if !bytes.Equal(gotB, wantB) {
				t.Fatalf("resumed final state diverged from uninterrupted run (snapshots differ, %d vs %d bytes)", len(gotB), len(wantB))
			}
		})
	}
}

// TestCrossModeCheckpointRestore: a checkpoint taken under one
// scheduler must restore into the other and finish with the same
// normalized result as an uninterrupted run. The snapshot goes through
// the checkpoint codec, as the on-disk checkpoint would.
func TestCrossModeCheckpointRestore(t *testing.T) {
	jitter := faults.Config{Seed: 7, JitterProb: 0.2, JitterMax: 10}
	for _, tc := range []struct {
		name     string
		from, to sim.Scheduler
		faults   faults.Config
	}{
		{name: "event_to_cycle", from: sim.SchedEvent, to: sim.SchedCycle},
		{name: "cycle_to_event", from: sim.SchedCycle, to: sim.SchedEvent},
		{name: "event_to_cycle_jitter", from: sim.SchedEvent, to: sim.SchedCycle, faults: jitter},
		{name: "cycle_to_event_jitter", from: sim.SchedCycle, to: sim.SchedEvent, faults: jitter},
	} {
		t.Run(tc.name, func(t *testing.T) {
			build := func(sched sim.Scheduler) func(...sim.Option) *sim.System {
				return func(opts ...sim.Option) *sim.System {
					return resumeSystem(t, config.PolicyRoW, "sps", tc.faults, append(opts, sim.WithScheduler(sched))...)
				}
			}
			want := build(tc.to)().MustRun()
			mid, _ := midSnap(t, build(tc.from))

			resumed := build(tc.to)()
			if err := resumed.RestoreSnap(viaCodec(t, encode(t, mid))); err != nil {
				t.Fatal(err)
			}
			got := resumed.MustRun()
			if got.SchedNormalized() != want.SchedNormalized() {
				t.Fatalf("cross-mode resume (%s) diverged:\n got %+v\nwant %+v", tc.name, got, want)
			}
		})
	}
}

// parkedMisses sums the caches' parked-miss counts (Result has none).
func parkedMisses(s *sim.System) (n uint64) {
	for _, pc := range s.Snapshot().Caches {
		n += pc.Stats.MSHRFull.Value()
	}
	return n
}

// TestCheckpointInsideMSHRStorm: cold canneal keeps every cache's MSHR
// file full, so a checkpoint lands while misses are parked. The
// snapshot carries them in queue order; resumed under either scheduler
// the run must end exactly as the uninterrupted one does.
func TestCheckpointInsideMSHRStorm(t *testing.T) {
	mem := config.Default().Mem
	build := func(sched sim.Scheduler, opts ...sim.Option) *sim.System {
		cfg := config.Default()
		cfg.NumCores = 8
		cfg.Policy = config.PolicyRoW
		cfg.WarmCaches = false
		cfg.MaxCycles = 50_000_000
		progs := workload.Generate(workload.MustGet("canneal"), cfg.NumCores, 3000, 11)
		s, err := sim.New(cfg, progs, append(opts, sim.WithScheduler(sched))...)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for _, from := range []sim.Scheduler{sim.SchedEvent, sim.SchedCycle} {
		var stormy []byte
		s := build(from, sim.WithCheckpoint(1024, func(cycle uint64, snap *sim.SysSnap) error {
			if stormy != nil {
				return nil
			}
			for _, pc := range snap.Caches {
				for i, e := range pc.Events {
					if i > 0 && e.At < pc.Events[i-1].At {
						t.Errorf("cycle %d: snapshot events out of time order: %v", cycle, pc.Events)
					}
				}
				if len(pc.Parked) >= 4 && len(pc.MSHRs) == mem.MSHRs {
					stormy = encode(t, snap)
					return nil
				}
			}
			return nil
		}))
		want, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if stormy == nil {
			t.Fatalf("%v: no checkpoint fell inside a full-MSHR storm", from)
		}
		for _, to := range []sim.Scheduler{sim.SchedEvent, sim.SchedCycle} {
			resumed := build(to)
			if err := resumed.RestoreSnap(viaCodec(t, stormy)); err != nil {
				t.Fatal(err)
			}
			got := resumed.MustRun()
			if to == from && got != want {
				t.Errorf("%v resumed under %v:\n got %+v\nwant %+v", from, to, got, want)
			}
			if got.SchedNormalized() != want.SchedNormalized() {
				t.Errorf("%v resumed under %v diverged:\n got %+v\nwant %+v", from, to, got, want)
			}
			if g, w := parkedMisses(resumed), parkedMisses(s); g != w {
				t.Errorf("%v resumed under %v: %d parked misses, want %d", from, to, g, w)
			}
		}
	}
}
