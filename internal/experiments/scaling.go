package experiments

import (
	"fmt"
	"slices"

	"rowsim/internal/stats"
	"rowsim/internal/workload"
)

// Scaling extends the paper's fixed 32-core evaluation with a
// core-count sweep: the eager/lazy gap on contended workloads grows
// with the number of contenders, and RoW must keep tracking the
// better policy at every point.
func Scaling(r *Runner, workloads []string) *stats.Table {
	if workloads == nil {
		workloads = []string{"canneal", "sps", "pc"}
	}
	t := &stats.Table{
		Title:   "Scaling — normalized execution time vs eager, by core count",
		Headers: []string{"workload", "cores", "lazy/eager", "RoW(Sat)/eager", "RoW(Sat+Fwd)/eager"},
	}
	cores := []int{8, 16, 32}
	for i, res := range r.sweep(workloads, cores, nil, VarEager, VarLazy, VarDirSat, VarDirSatFwd) {
		e := res[0].Cycles
		t.AddRow(workloads[i/len(cores)], fmt.Sprint(cores[i%len(cores)]),
			stats.F(Norm(res[1].Cycles, e)), stats.F(Norm(res[2].Cycles, e)), stats.F(Norm(res[3].Cycles, e)))
	}
	return t
}

// LockStudy applies the policy comparison to the classic
// synchronization algorithms the paper's introduction motivates:
// test-and-set spinlocks (SWAP-hammering), ticket locks (one FAA per
// acquisition) and sense-reversing barriers. Eager execution is
// disastrous for lock words (the lock's cacheline is held locked
// while the winner's ROB drains) and lazy recovers most of it.
func LockStudy(r *Runner) *stats.Table {
	t := &stats.Table{
		Title:   "Lock study — synchronization kernels, normalized to eager",
		Headers: []string{"kernel", "eager-cycles", "lazy", "RoW(Sat)", "RoW(Sat+Fwd)"},
	}
	for w, res := range r.sweep(workload.SyncKernels, nil, nil, VarEager, VarLazy, VarDirSat, VarDirSatFwd) {
		e := res[0].Cycles
		t.AddRow(workload.SyncKernels[w], fmt.Sprint(e), stats.F(Norm(res[1].Cycles, e)),
			stats.F(Norm(res[2].Cycles, e)), stats.F(Norm(res[3].Cycles, e)))
	}
	return t
}

// Stability reruns the headline comparisons under several trace seeds
// and reports the spread, so readers can judge which effects are
// robust and which are generation noise.
func Stability(r *Runner, seeds []uint64, workloads []string) *stats.Table {
	if seeds == nil {
		seeds = []uint64{1, 2, 3}
	}
	if workloads == nil {
		workloads = []string{"canneal", "cq", "sps", "pc"}
	}
	t := &stats.Table{
		Title:   fmt.Sprintf("Stability — lazy/eager and RoW(Sat)/eager over %d seeds (mean [min,max])", len(seeds)),
		Headers: []string{"workload", "lazy/eager", "RoW(Sat)/eager"},
	}
	span := func(vs []float64) string {
		return fmt.Sprintf("%.3f [%.3f,%.3f]", stats.ArithMean(vs), slices.Min(vs), slices.Max(vs))
	}
	runs := r.sweep(workloads, nil, seeds, VarEager, VarLazy, VarDirSat)
	for w, wl := range workloads {
		var lazies, rows []float64
		for _, res := range runs[w*len(seeds) : (w+1)*len(seeds)] {
			lazies = append(lazies, Norm(res[1].Cycles, res[0].Cycles))
			rows = append(rows, Norm(res[2].Cycles, res[0].Cycles))
		}
		t.AddRow(wl, span(lazies), span(rows))
	}
	return t
}
