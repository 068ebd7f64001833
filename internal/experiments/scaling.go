package experiments

import (
	"fmt"

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
	coreCounts := []int{8, 16, 32}
	t := &stats.Table{
		Title:   "Scaling — normalized execution time vs eager, by core count",
		Headers: []string{"workload", "cores", "lazy/eager", "RoW(Sat)/eager", "RoW(Sat+Fwd)/eager"},
	}
	// Each (workload, coreCount) cell has its own memoizing sub-runner;
	// the parallel phase warms all cells at once and the sequential
	// table pass below reads the memos back in deterministic order.
	type cell struct {
		wl  string
		n   int
		sub *Runner
	}
	var cells []cell
	for _, wl := range workloads {
		for _, n := range coreCounts {
			sub := NewRunner(Options{
				Cores:     n,
				Instrs:    r.opt.Instrs,
				Seed:      r.opt.Seed,
				Workloads: []string{wl},
			})
			sub.Progress, sub.setup = r.Progress, r.setup // one bounded set-up cache, not one per cell
			cells = append(cells, cell{wl: wl, n: n, sub: sub})
		}
	}
	ForEach(r.Jobs(), len(cells), func(i int) {
		defer func() { _ = recover() }()
		c := cells[i]
		for _, v := range []Variant{VarEager, VarLazy, VarDirSat, VarDirSatFwd} {
			if _, err := c.sub.Run(c.wl, v); err != nil {
				return
			}
		}
	})
	for _, c := range cells {
		wl, n, sub := c.wl, c.n, c.sub
		{
			e := sub.MustRun(wl, VarEager)
			l := sub.MustRun(wl, VarLazy)
			s := sub.MustRun(wl, VarDirSat)
			f := sub.MustRun(wl, VarDirSatFwd)
			t.AddRow(wl, fmt.Sprint(n),
				stats.F(Norm(l.Cycles, e.Cycles)),
				stats.F(Norm(s.Cycles, e.Cycles)),
				stats.F(Norm(f.Cycles, e.Cycles)))
		}
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
		mean := stats.ArithMean(vs)
		lo, hi := vs[0], vs[0]
		for _, v := range vs {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		return fmt.Sprintf("%.3f [%.3f,%.3f]", mean, lo, hi)
	}
	for _, wl := range workloads {
		var lazies, rows []float64
		for _, seed := range seeds {
			sub := NewRunner(Options{
				Cores:     r.opt.Cores,
				Instrs:    r.opt.Instrs,
				Seed:      seed,
				Workloads: []string{wl},
			})
			sub.Progress, sub.setup = r.Progress, r.setup // one bounded set-up cache, not one per cell
			e := sub.MustRun(wl, VarEager)
			lazies = append(lazies, Norm(sub.MustRun(wl, VarLazy).Cycles, e.Cycles))
			rows = append(rows, Norm(sub.MustRun(wl, VarDirSat).Cycles, e.Cycles))
		}
		t.AddRow(wl, span(lazies), span(rows))
	}
	return t
}
