package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"

	"rowsim/internal/sim"
)

// This file is the sweep-parallelism engine. Every figure is a set of
// independent, deterministic cell simulations, and every figure names
// its cells once, to Runner.sweep, which runs them in two phases: a
// parallel phase that fans the cells across a worker pool to fill the
// runner's memo, and a sequential phase that reads every cell back from
// the memo in sweep order. The figure therefore observes exactly the
// results (and the failure behavior) of a jobs=1 run: output is
// byte-identical for any worker count, and only wall-clock time changes.

// Jobs resolves a -jobs flag value: n >= 1 is taken literally, any
// other value selects GOMAXPROCS.
func Jobs(n int) int {
	if n >= 1 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// ForEach runs fn(i) for every i in [0,n) using up to jobs concurrent
// workers and returns when all calls finished. Indices are handed out
// in order, but fn must not depend on completion order; with jobs <= 1
// the calls run sequentially on the caller's goroutine.
func ForEach(jobs, n int, fn func(i int)) {
	if jobs > n {
		jobs = n
	}
	if jobs <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next int64 = -1
	var wg sync.WaitGroup
	wg.Add(jobs)
	for w := 0; w < jobs; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// SetJobs sets the worker count sweep fans cells across (resolved via
// Jobs; the default is 1, i.e. fully sequential). The set-up cache is
// sized to match.
func (r *Runner) SetJobs(n int) {
	r.jobs = Jobs(n)
	r.setup.setRuns(r.jobs)
}

// Jobs returns the effective worker count.
func (r *Runner) Jobs() int {
	if r.jobs < 1 {
		return 1
	}
	return r.jobs
}

// sweep runs the cells of workloads × cores × seeds × variants (nil
// cores or seeds: the runner's own) and returns their results, a row
// per (workload, cores, seed) in that nesting order, each row in
// variants order. The parallel phase swallows run errors (and panics)
// on purpose: the runs are deterministic, so the sequential read-back
// re-executes any failed cell and meets the identical failure, under
// the MustRun convention. The first failing cell in sweep order
// therefore panics whatever the worker count.
func (r *Runner) sweep(workloads []string, cores []int, seeds []uint64, variants ...Variant) [][]sim.Result {
	if cores == nil {
		cores = []int{r.opt.Cores}
	}
	if seeds == nil {
		seeds = []uint64{r.opt.Seed}
	}
	cells := grid(workloads, cores, seeds, variants...)
	if r.Jobs() > 1 && len(cells) > 1 {
		ForEach(r.Jobs(), len(cells), func(i int) {
			defer func() { _ = recover() }()
			_, _ = r.run(cells[i])
		})
	}
	var rows [][]sim.Result
	for i := 0; i < len(cells); i += len(variants) {
		row := make([]sim.Result, len(variants))
		for j := range row {
			row[j] = r.must(cells[i+j])
		}
		rows = append(rows, row)
	}
	return rows
}
