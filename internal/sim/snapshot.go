package sim

import (
	"fmt"

	"rowsim/internal/cache"
	"rowsim/internal/coherence"
	"rowsim/internal/config"
	"rowsim/internal/core"
	"rowsim/internal/faults"
	"rowsim/internal/interconnect"
)

// SysSnap is a deep copy of the full system's mutable state at one
// simulated instant: every core pipeline, private cache, directory
// bank, the mesh (in-flight and inboxed messages), the fault
// injector's RNG position, and the cycle counter. Restoring it into a freshly built System (same config, same
// regenerated programs) and resuming yields a run byte-identical to
// one that was never interrupted.
//
// Not captured, by design:
//
//   - programs: workload.Generate is a pure function of its parameters,
//     so a resume builds the system over the same trace again — freshly
//     generated, or the shared copy a sweep's set-up cache holds — and
//     core.Restore rebinds instruction pointers by program index. The
//     warm New recorded (Warm, or the set's warm image) never runs:
//     RestoreSnap drops it. The checkpoint content key covers the
//     generator parameters instead.
//   - the error sink: snapshots are taken in RunCtx's cold block, which
//     runs only after the sink has been checked empty that cycle — a
//     system with a recorded protocol error never reaches a checkpoint.
//   - construction-time wiring (config, bank mapping, warm filter,
//     check cadences): rebuilt by sim.New, validated by the content key.
type SysSnap struct {
	Cycle uint64
	// Visited is the cumulative visited-cycle count, carried so a
	// resumed run reports the same CyclesVisited as an uninterrupted
	// one in the same scheduler mode.
	Visited uint64
	Mesh    interconnect.MeshSnap
	// The per-component snapshots are held by pointer: each one is
	// built in place by its component and handed around by reference
	// (a CoreSnap alone is ~900 bytes). The checkpoint body codec
	// follows the pointers, each behind a presence byte.
	Cores  []*core.CoreSnap
	Caches []*cache.CacheSnap
	Dirs   []*coherence.DirSnap
	Faults faults.InjectorSnap
}

// Snapshot captures the system's full mutable state. It is a pure
// read: taking a snapshot never perturbs the run. On a system nothing
// has read or advanced yet it first runs the warm New deferred.
func (s *System) Snapshot() *SysSnap {
	s.settle()
	snap := &SysSnap{
		Cycle:   s.cycle,
		Visited: s.visited,
		Mesh:    s.mesh.Snapshot(),
		Faults:  s.injector.Snapshot(),
	}
	for _, c := range s.cores {
		snap.Cores = append(snap.Cores, c.Snapshot())
	}
	for _, pc := range s.caches {
		snap.Caches = append(snap.Caches, pc.Snapshot())
	}
	for _, d := range s.dirs {
		snap.Dirs = append(snap.Dirs, d.Snapshot())
	}
	return snap
}

// RestoreSnap rewinds the system to a previously captured SysSnap. The
// system must have been built by sim.New with the same configuration
// and the same (regenerated) programs; the caller is expected to have
// verified that via the checkpoint content key, so a shape mismatch
// here reports an error rather than guessing. So does a snapshot a
// component refuses (its Restore panics on state that cannot have come
// from a component of its geometry, such as an sram line past the end
// of the array): that error comes after other components were
// restored, and the system must then be discarded, never run. A warm
// New deferred is dropped, not run: the snapshot overwrites every
// cache and bank it would have filled.
func (s *System) RestoreSnap(snap *SysSnap) (err error) {
	if len(snap.Cores) != len(s.cores) || len(snap.Caches) != len(s.caches) || len(snap.Dirs) != len(s.dirs) {
		return fmt.Errorf("sim: snapshot shape %d cores/%d caches/%d dirs does not match system %d/%d/%d",
			len(snap.Cores), len(snap.Caches), len(snap.Dirs), len(s.cores), len(s.caches), len(s.dirs))
	}
	if s.injector == nil && snap.Faults != (faults.InjectorSnap{}) {
		return fmt.Errorf("sim: snapshot carries fault-injector state but the system has no injector")
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sim: snapshot does not fit the system: %v", r)
		}
	}()
	s.warmDue, s.progs = false, nil
	s.cycle = snap.Cycle
	s.visited = snap.Visited
	s.lastCkpt = snap.Cycle
	s.mesh.Restore(snap.Mesh)
	s.injector.Restore(snap.Faults)
	for i, c := range s.cores {
		c.Restore(snap.Cores[i])
	}
	for i, pc := range s.caches {
		pc.Restore(snap.Caches[i])
	}
	for i, d := range s.dirs {
		d.Restore(snap.Dirs[i])
	}
	return nil
}

// WarmImage is the memory half of a SysSnap — every private cache and
// every directory bank — as Warm left them, plus the geometry they were
// built with. Warm is a function of the programs, the warm filter and
// that geometry only, so one image serves every policy variant run over
// one trace set: take it from the first system (WarmImage) and hand it
// to the rest (WithWarmImage). It is not a second way of warming, only
// Warm's result carried by the snapshot types checkpoints use.
type WarmImage struct {
	Mem    config.Memory
	Caches []*cache.CacheSnap
	Dirs   []*coherence.DirSnap
}

// WarmImage captures the caches and banks of a system New has just
// built, before it runs: at that point they hold what Warm installed
// and nothing else. Like Snapshot it is a pure read, and like Snapshot
// it first runs the warm New deferred.
func (s *System) WarmImage() *WarmImage {
	s.settle()
	img := &WarmImage{
		Mem:    s.cfg.Mem,
		Caches: make([]*cache.CacheSnap, len(s.caches)),
		Dirs:   make([]*coherence.DirSnap, len(s.dirs)),
	}
	for i, pc := range s.caches {
		img.Caches[i] = pc.Snapshot()
	}
	for i, d := range s.dirs {
		img.Dirs[i] = d.Snapshot()
	}
	return img
}

// fits reports why img cannot stand in for s's warm, if it cannot.
func (img *WarmImage) fits(s *System) error {
	if img.Mem != s.cfg.Mem || len(img.Caches) != len(s.caches) || len(img.Dirs) != len(s.dirs) {
		return fmt.Errorf("sim: warm image of %d caches/%d banks, memory %+v, does not fit a system of %d/%d, memory %+v",
			len(img.Caches), len(img.Dirs), &img.Mem, len(s.caches), len(s.dirs), &s.cfg.Mem)
	}
	return nil
}

// restoreImage is settle's alternative to Warm: the same state,
// restored from an image that fits.
func (s *System) restoreImage(img *WarmImage) {
	for i, pc := range s.caches {
		pc.Restore(img.Caches[i])
	}
	for i, d := range s.dirs {
		d.Restore(img.Dirs[i])
	}
}
