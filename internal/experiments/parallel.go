package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the sweep-parallelism engine. Every figure is a set of
// independent, deterministic cell simulations, so the harness splits
// each figure into two phases: a parallel *warm* phase that fans the
// runs across a worker pool to fill the runner's memo, and the
// unchanged sequential phase that builds the table from the memo. The
// table pass therefore observes exactly the results (and the failure
// behavior) of a jobs=1 run: output is byte-identical for any worker
// count, and only wall-clock time changes.

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

// Spec names one memoizable cell of a figure sweep.
type Spec struct {
	Workload string
	Variant  Variant
}

// Cross builds the spec set {workloads} x {variants}.
func Cross(workloads []string, variants ...Variant) []Spec {
	specs := make([]Spec, 0, len(workloads)*len(variants))
	for _, wl := range workloads {
		for _, v := range variants {
			specs = append(specs, Spec{Workload: wl, Variant: v})
		}
	}
	return specs
}

// SetJobs sets the worker count Warm fans runs across (resolved via
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

// Warm fills the memo for the given specs using the runner's worker
// pool; the memo sees to it that a repeated cell runs once. Run errors
// (and panics) are swallowed here on purpose: the runs are
// deterministic, so the figure's sequential pass re-executes any
// failed cell and reports the identical failure exactly as a
// sequential run would — Warm only ever changes wall-clock time.
func (r *Runner) Warm(specs []Spec) {
	cells := make([]cell, len(specs))
	for i, s := range specs {
		cells[i] = cell{s.Workload, s.Variant, r.opt.Cores, r.opt.Seed}
	}
	r.warm(cells)
}

// warm is Warm for cells of any core count and seed.
func (r *Runner) warm(cells []cell) {
	if r.Jobs() <= 1 || len(cells) < 2 {
		return
	}
	ForEach(r.Jobs(), len(cells), func(i int) {
		defer func() { _ = recover() }()
		_, _ = r.run(cells[i])
	})
}
