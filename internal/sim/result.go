package sim

import (
	"rowsim/internal/core"
	"rowsim/internal/stats"
)

// ModelVersion numbers what the simulator computes. Bump it in any
// change that moves a number in testdata/model.golden: the golden's
// header must equal it, and every cache of results — content keys,
// sweep journals, rowserve's memo — refuses another model's. A journal
// with no "model" field was written by model 0, which retried a miss
// that found the MSHR file full every 4 cycles; model 1 parks it until
// an MSHR frees.
const ModelVersion = 1

// Result aggregates the metrics a run produces; the experiments
// package turns these into the paper's figures.
type Result struct {
	// Cycles is the parallel execution time: the cycle at which the
	// last core finished. This is the cycles-advanced count — simulated
	// time is identical with and without the cross-check.
	Cycles uint64

	// CyclesVisited is the number of cycles the scheduler actually
	// simulated: equal to Cycles under the cross-check, usually far
	// smaller without it (1 - CyclesVisited/Cycles is the skip
	// efficiency). It is the only Result field that legitimately
	// differs between a cross-checked and a plain run; compare them
	// with SchedNormalized.
	CyclesVisited uint64

	Committed uint64
	Atomics   uint64 // committed locking atomics
	IPC       float64

	AtomicsPer10K float64
	// ContendedFrac is the fraction of atomics whose contended bit was
	// set at unlock (Fig. 5's red line).
	ContendedFrac float64

	EagerIssued      uint64
	LazyIssued       uint64
	ForwardedAtomics uint64
	PredictedLazy    uint64

	// Fig. 6 latency breakdown (mean cycles per atomic).
	DispatchToIssue float64
	IssueToLock     float64
	LockToUnlock    float64

	// Fig. 4 instrumentation (means per issued atomic).
	OlderUnexecAtEager   float64
	YoungerStartedAtLazy float64

	// MissLatency is the mean L1D demand-miss fill latency over all
	// cores (Fig. 11); P99 is the tail of the same distribution.
	MissLatency    float64
	MissLatencyP99 float64

	// LockHoldP99 is the 99th percentile of lock-window lengths: the
	// convoy tail that eager execution grows under contention.
	LockHoldP99 float64

	// PredAccuracy is the contention predictor accuracy (Fig. 12);
	// zero when the policy is not RoW.
	PredAccuracy float64

	LoadForwards   uint64
	LQSquashes     uint64
	SSViolations   uint64
	ForcedReleases uint64
	Mispredicts    uint64
	Branches       uint64
	ExtStalls      uint64

	NetworkMessages uint64
}

// SchedNormalized returns the result with the scheduler-dependent
// bookkeeping zeroed: two runs of the same workload must compare equal
// under it regardless of scheduler mode.
func (r Result) SchedNormalized() Result {
	r.CyclesVisited = 0
	return r
}

func (s *System) collect() Result {
	var r Result
	r.Cycles = s.cycle
	r.CyclesVisited = s.visited

	var d2i, i2l, l2u, older, younger, miss stats.Mean
	var predTotal, predCorrectWeighted float64
	var contendedTotal uint64
	missHist := stats.NewHistogram(1 << 16)
	lockHist := stats.NewHistogram(1 << 16)

	for i, c := range s.cores {
		st := &c.Stats
		r.Committed += st.Committed
		r.Atomics += st.Atomics
		r.EagerIssued += st.Transitions[core.EagerIssue]
		r.LazyIssued += st.Transitions[core.LazyIssue]
		r.ForwardedAtomics += st.Transitions[core.Forward]
		r.PredictedLazy += st.PredictedLazy
		r.LoadForwards += st.LoadForwards
		r.LQSquashes += st.LQSquashes
		r.SSViolations += st.SSViolations
		r.ForcedReleases += st.Transitions[core.ForcedReleaseEager] + st.Transitions[core.ForcedReleaseLazy]
		r.Mispredicts += st.Mispredicts
		r.Branches += st.Branches
		contendedTotal += st.ContendedAtomics

		d2i.Merge(&st.DispatchToIssue)
		i2l.Merge(&st.IssueToLock)
		l2u.Merge(&st.LockToUnlock)
		older.Merge(&st.OlderUnexecAtEager)
		younger.Merge(&st.YoungerStartedAtLazy)

		pc := s.caches[i]
		miss.Merge(&pc.Stats.MissLatency)
		missHist.Merge(pc.Stats.MissHist)
		lockHist.Merge(st.LockHold)
		r.ExtStalls += pc.Stats.ExtStalls.Value()

		if cp := c.ContentionPredictor(); cp != nil && cp.Predictions() > 0 {
			predTotal += float64(cp.Predictions())
			predCorrectWeighted += cp.Accuracy() * float64(cp.Predictions())
		}
	}
	if r.Atomics > 0 {
		r.ContendedFrac = float64(contendedTotal) / float64(r.Atomics)
	}
	if r.Committed > 0 {
		r.AtomicsPer10K = float64(r.Atomics) / float64(r.Committed) * 10000
	}
	if r.Cycles > 0 {
		r.IPC = float64(r.Committed) / float64(r.Cycles)
	}
	r.DispatchToIssue = d2i.Value()
	r.IssueToLock = i2l.Value()
	r.LockToUnlock = l2u.Value()
	r.OlderUnexecAtEager = older.Value()
	r.YoungerStartedAtLazy = younger.Value()
	r.MissLatency = miss.Value()
	r.MissLatencyP99 = missHist.Quantile(0.99)
	r.LockHoldP99 = lockHist.Quantile(0.99)
	if predTotal > 0 {
		r.PredAccuracy = predCorrectWeighted / predTotal
	}
	r.NetworkMessages = s.mesh.Messages()
	return r
}
