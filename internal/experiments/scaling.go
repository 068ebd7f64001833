package experiments

import (
	"fmt"
	"slices"

	"rowsim/internal/config"
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
	variants := []Variant{VarEager, VarLazy, VarDirSat, VarDirSatFwd}
	cells := grid(workloads, []int{8, 16, 32}, []uint64{r.opt.Seed}, variants...)
	r.warm(cells)
	t := &stats.Table{
		Title:   "Scaling — normalized execution time vs eager, by core count",
		Headers: []string{"workload", "cores", "lazy/eager", "RoW(Sat)/eager", "RoW(Sat+Fwd)/eager"},
	}
	for i := 0; i < len(cells); i += len(variants) {
		c := cells[i : i+len(variants)] // one (workload, cores) row, in variants order
		e := r.must(c[0])
		t.AddRow(c[0].wl, fmt.Sprint(c[0].cores),
			stats.F(Norm(r.must(c[1]).Cycles, e.Cycles)),
			stats.F(Norm(r.must(c[2]).Cycles, e.Cycles)),
			stats.F(Norm(r.must(c[3]).Cycles, e.Cycles)))
	}
	return t
}

// FarVsNear extends the evaluation along the orthogonal axis the
// paper's Section VII surveys: *where* to execute the atomic. Far
// atomics (performed at the shared L3 bank, IBM-style) avoid bouncing
// contended lines entirely but pay a full round trip per atomic, so
// they win exactly where lazy wins and lose where eager wins — RoW's
// when-question and Dynamo/CLAU's where-question are complementary.
func FarVsNear(r *Runner) *stats.Table {
	far := Variant{Name: "Far", Policy: config.PolicyFar, Threshold: -1}
	r.Warm(Cross(r.opt.Workloads, VarEager, VarLazy, VarDirSatFwd, far))
	t := &stats.Table{
		Title:   "Far vs near — normalized execution time vs eager (near)",
		Headers: []string{"workload", "eager", "lazy", "RoW(Sat+Fwd)", "far"},
	}
	var ls, rs, fs []float64
	for _, wl := range r.opt.Workloads {
		e := r.MustRun(wl, VarEager)
		l := Norm(r.MustRun(wl, VarLazy).Cycles, e.Cycles)
		w := Norm(r.MustRun(wl, VarDirSatFwd).Cycles, e.Cycles)
		f := Norm(r.MustRun(wl, far).Cycles, e.Cycles)
		ls, rs, fs = append(ls, l), append(rs, w), append(fs, f)
		t.AddRow(wl, "1.000", stats.F(l), stats.F(w), stats.F(f))
	}
	t.AddRow("geomean", "1.000", stats.F(stats.GeoMean(ls)), stats.F(stats.GeoMean(rs)), stats.F(stats.GeoMean(fs)))
	return t
}

// LockStudy applies the policy comparison to the classic
// synchronization algorithms the paper's introduction motivates:
// test-and-set spinlocks (SWAP-hammering), ticket locks (one FAA per
// acquisition) and sense-reversing barriers. Eager execution is
// disastrous for lock words (the lock's cacheline is held locked
// while the winner's ROB drains), lazy recovers most of it, and far
// execution shines for barrier arrivals (a fetch-and-add at the bank,
// no line migration at all).
func LockStudy(r *Runner) *stats.Table {
	far := Variant{Name: "Far", Policy: config.PolicyFar, Threshold: -1}
	r.Warm(Cross(workload.SyncKernels, VarEager, VarLazy, VarDirSat, VarDirSatFwd, far))
	t := &stats.Table{
		Title:   "Lock study — synchronization kernels, normalized to eager",
		Headers: []string{"kernel", "eager-cycles", "lazy", "RoW(Sat)", "RoW(Sat+Fwd)", "far"},
	}
	for _, wl := range workload.SyncKernels {
		e := r.MustRun(wl, VarEager)
		t.AddRow(wl,
			fmt.Sprint(e.Cycles),
			stats.F(Norm(r.MustRun(wl, VarLazy).Cycles, e.Cycles)),
			stats.F(Norm(r.MustRun(wl, VarDirSat).Cycles, e.Cycles)),
			stats.F(Norm(r.MustRun(wl, VarDirSatFwd).Cycles, e.Cycles)),
			stats.F(Norm(r.MustRun(wl, far).Cycles, e.Cycles)))
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
	r.warm(grid(workloads, []int{r.opt.Cores}, seeds, VarEager, VarLazy, VarDirSat))
	for _, wl := range workloads {
		var lazies, rows []float64
		for _, seed := range seeds {
			e := r.must(cell{wl, VarEager, r.opt.Cores, seed})
			lazies = append(lazies, Norm(r.must(cell{wl, VarLazy, r.opt.Cores, seed}).Cycles, e.Cycles))
			rows = append(rows, Norm(r.must(cell{wl, VarDirSat, r.opt.Cores, seed}).Cycles, e.Cycles))
		}
		t.AddRow(wl, span(lazies), span(rows))
	}
	return t
}
