package predictor

// Snapshot/Restore for the three predictor tables. A snapshot is a
// deep copy of every field that evolves during a run; construction-time
// geometry (table masks, counter widths, thresholds, predictor kind)
// is derived from the configuration when the predictor is rebuilt and
// deliberately excluded — restoring a snapshot into a predictor built
// from a different configuration is a caller bug the sizes make loudly
// visible.

// BranchSnap is the serializable state of a Branch predictor.
type BranchSnap struct {
	GShare     []uint8
	Bimodal    []uint8
	Chooser    []uint8
	History    uint64
	Lookups    uint64
	Mispredict uint64
}

// Snapshot deep-copies the branch predictor's mutable state.
func (b *Branch) Snapshot() BranchSnap {
	return BranchSnap{
		GShare:     append([]uint8(nil), b.gshare...),
		Bimodal:    append([]uint8(nil), b.bimodal...),
		Chooser:    append([]uint8(nil), b.chooser...),
		History:    b.history,
		Lookups:    b.lookups,
		Mispredict: b.mispredict,
	}
}

// Restore overwrites the predictor's mutable state from a snapshot
// taken from an identically sized predictor.
func (b *Branch) Restore(s BranchSnap) {
	copy(b.gshare, s.GShare)
	copy(b.bimodal, s.Bimodal)
	copy(b.chooser, s.Chooser)
	b.history = s.History
	b.lookups = s.Lookups
	b.mispredict = s.Mispredict
}

// StoreSetSnap is the serializable state of a StoreSet predictor.
type StoreSetSnap struct {
	SSIT       []int32
	LFST       []uint64
	NextID     int32
	Violations uint64
}

// Snapshot deep-copies the store-set predictor's mutable state.
func (s *StoreSet) Snapshot() StoreSetSnap {
	return StoreSetSnap{
		SSIT:       append([]int32(nil), s.ssit...),
		LFST:       append([]uint64(nil), s.lfst...),
		NextID:     s.nextID,
		Violations: s.violations,
	}
}

// Restore overwrites the predictor's mutable state from a snapshot
// taken from an identically sized predictor.
func (s *StoreSet) Restore(snap StoreSetSnap) {
	copy(s.ssit, snap.SSIT)
	copy(s.lfst, snap.LFST)
	s.nextID = snap.NextID
	s.violations = snap.Violations
}

// ContentionSnap is the serializable state of a Contention predictor.
type ContentionSnap struct {
	Counters      []uint16
	Predictions   uint64
	Correct       uint64
	PredContended uint64
}

// Snapshot deep-copies the contention predictor's mutable state.
func (p *Contention) Snapshot() ContentionSnap {
	return ContentionSnap{
		Counters:      append([]uint16(nil), p.counters...),
		Predictions:   p.predictions,
		Correct:       p.correct,
		PredContended: p.predContended,
	}
}

// Restore overwrites the predictor's mutable state from a snapshot
// taken from an identically configured predictor.
func (p *Contention) Restore(s ContentionSnap) {
	copy(p.counters, s.Counters)
	p.predictions = s.Predictions
	p.correct = s.Correct
	p.predContended = s.PredContended
}
