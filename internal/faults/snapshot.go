package faults

// InjectorSnap is the serializable mid-run state of an Injector: the
// PRNG position and the decision counters. Perturb consumes one
// deterministic RNG decision sequence per delivery, so restoring the
// stream state is what makes a resumed faulty run take exactly the
// jitter/reorder decisions the uninterrupted run would have taken.
// The configuration is construction-time state (part of the checkpoint
// content key, not the snapshot); buf is per-call scratch that never
// carries state across deliveries.
type InjectorSnap struct {
	RNGState uint64
	Stats    Stats
}

// Snapshot captures the injector's mutable state. A nil injector (no
// faults installed) snapshots to the zero value.
func (in *Injector) Snapshot() InjectorSnap {
	if in == nil {
		return InjectorSnap{}
	}
	return InjectorSnap{RNGState: in.rng.State(), Stats: in.stats}
}

// Restore overwrites the injector's mutable state. A nil injector
// ignores the call (the zero snapshot round-trips).
func (in *Injector) Restore(s InjectorSnap) {
	if in == nil {
		return
	}
	in.rng.SetState(s.RNGState)
	in.stats = s.Stats
}
