package experiments

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"rowsim/internal/config"
	"rowsim/internal/lifecycle"
	"rowsim/internal/sim"
)

// TestForEachCoversAllIndicesBounded checks the worker pool's two
// contracts: every index in [0,n) is visited exactly once, and no more
// than jobs workers run concurrently.
func TestForEachCoversAllIndicesBounded(t *testing.T) {
	const n, jobs = 97, 4
	var mu sync.Mutex
	seen := make(map[int]int)
	var inFlight, maxInFlight int64
	ForEach(jobs, n, func(i int) {
		cur := atomic.AddInt64(&inFlight, 1)
		for {
			prev := atomic.LoadInt64(&maxInFlight)
			if cur <= prev || atomic.CompareAndSwapInt64(&maxInFlight, prev, cur) {
				break
			}
		}
		mu.Lock()
		seen[i]++
		mu.Unlock()
		atomic.AddInt64(&inFlight, -1)
	})
	if len(seen) != n {
		t.Fatalf("visited %d distinct indices, want %d", len(seen), n)
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
	if maxInFlight > jobs {
		t.Fatalf("observed %d concurrent calls, limit %d", maxInFlight, jobs)
	}
}

func parallelTestOptions() Options {
	return Options{Cores: 4, Instrs: 1200, Seed: 1, Workloads: []string{"sps", "canneal"}}
}

// TestFigureOutputIdenticalForAnyJobs is the tentpole determinism
// guarantee: the rendered figure tables must be byte-identical whether
// the underlying runs execute sequentially or fanned across a worker
// pool. The parallel phase only warms the memo; the table pass always
// reads it back in sweep order. The reference is neither: a table
// rendered from cells that were each generated, built by plain sim.New
// and warmed on their own, so the shared trace sets and warm images of
// the runner's set-up cache are held to the path they replace. Scaling
// and Stability are here for their cells at other core counts and
// seeds than the runner's own; the rest cover the normalized-to-eager
// builder with and without an eager column, and figures whose variants
// are derived on the fly.
func TestFigureOutputIdenticalForAnyJobs(t *testing.T) {
	opt := parallelTestOptions()
	own := func(vs ...Variant) []cell { return grid(opt.Workloads, []int{opt.Cores}, []uint64{opt.Seed}, vs...) }
	fig10 := []Variant{VarEager}
	for _, th := range []int{0, 100, 400, 1000, 2000, -2} {
		v := VarDirUD
		v.Name, v.Threshold = fmt.Sprintf("RW+Dir_U/D(th=%d)", th), th
		fig10 = append(fig10, v)
	}
	aq := []Variant{VarEager}
	for _, n := range []int{4, 8, 16, 32} {
		v := VarDirUD
		v.Name, v.AQSize = fmt.Sprintf("RW+Dir_U/D(aq%d)", n), n
		aq = append(aq, v)
	}
	var fig8 []Variant
	for _, d := range []struct {
		name string
		det  config.Detection
	}{{"EW", config.DetectEW}, {"RW", config.DetectRW}, {"RW+Dir", config.DetectRWDir}} {
		v := VarEager
		v.Name, v.Detection = "eager-detect-"+d.name, d.det
		fig8 = append(fig8, v)
	}
	figures := []struct {
		name  string
		run   func(r *Runner) fmt.Stringer
		cells []cell
	}{
		{"Fig1", func(r *Runner) fmt.Stringer { return Fig1(r) }, own(VarEager, VarLazy)},
		{"Fig9", func(r *Runner) fmt.Stringer { return Fig9(r) }, own(append([]Variant{VarEager}, Fig9Variants...)...)},
		{"Fig10", func(r *Runner) fmt.Stringer { return Fig10(r) }, own(fig10...)},
		{"Fig11", func(r *Runner) fmt.Stringer { return Fig11(r) }, own(VarEager, VarLazy, VarDirUD, VarDirSat)},
		{"Fig13", func(r *Runner) fmt.Stringer { return Fig13(r) }, own(append([]Variant{VarEager}, Fig13Variants...)...)},
		{"AblationAQSize", func(r *Runner) fmt.Stringer { return AblationAQSize(r) }, own(aq...)},
		{"Fig8Race", func(r *Runner) fmt.Stringer { return Fig8Race(r) }, own(fig8...)},
		{"Scaling", func(r *Runner) fmt.Stringer { return Scaling(r, []string{"sps"}) },
			grid([]string{"sps"}, []int{8, 16, 32}, []uint64{opt.Seed}, VarEager, VarLazy, VarDirSat, VarDirSatFwd)},
		{"Stability", func(r *Runner) fmt.Stringer { return Stability(r, []uint64{1, 2}, []string{"sps"}) },
			grid([]string{"sps"}, []int{opt.Cores}, []uint64{1, 2}, VarEager, VarLazy, VarDirSat)},
	}
	for _, fig := range figures {
		ref := NewRunner(opt)
		for _, c := range fig.cells {
			s, err := plainSystem(c.v.Config(c.cores), c.wl, c.cores, opt.Instrs, c.seed)
			if err != nil {
				t.Fatal(err)
			}
			ref.memo.Put(c.key(), s.MustRun())
		}
		want := fig.run(ref).String()
		if n := ref.SetupStats(); n != (SetupStats{}) {
			t.Fatalf("%s: the reference runner simulated a cell itself (%v); its cell list is out of date", fig.name, n)
		}
		for _, jobs := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			r := NewRunner(opt)
			r.SetJobs(jobs)
			if got := fig.run(r).String(); got != want {
				t.Fatalf("%s with jobs=%d differs from the table of plainly built cells:\n%s\n--- vs ---\n%s",
					fig.name, jobs, got, want)
			}
		}
	}
}

// TestWarmFailureDeferredToSequentialPass: a failing cell must not
// crash sweep's parallel phase; the sequential read-back panics with
// the exact error a jobs=1 sweep raises, at the first failing cell in
// sweep order, after the good cells before it were read.
func TestWarmFailureDeferredToSequentialPass(t *testing.T) {
	sweep := func(jobs int) (ran []string, err error) {
		r := NewRunner(parallelTestOptions())
		r.SetJobs(jobs)
		var mu sync.Mutex
		r.Progress = func(msg string) {
			mu.Lock()
			ran = append(ran, msg)
			mu.Unlock()
		}
		defer func() { err, _ = recover().(error) }()
		// An unknown workload fails every run of its cell; the parallel
		// phase must swallow that and leave the good cells in the memo.
		r.sweep([]string{"sps", "no-such-workload", "canneal"}, nil, nil, VarEager, VarLazy)
		return ran, nil
	}
	seqRan, errSeq := sweep(1)
	parRan, errPar := sweep(4)
	if errSeq == nil || errPar == nil {
		t.Fatalf("a sweep over a bad cell returned: seq %v, par %v", errSeq, errPar)
	}
	if errPar.Error() != errSeq.Error() || !strings.Contains(errSeq.Error(), "no-such-workload under Eager") {
		t.Fatalf("parallel error diverges from sequential error, or names the wrong cell:\npar: %v\nseq: %v", errPar, errSeq)
	}
	if len(seqRan) != 2 || len(parRan) != 4 {
		t.Fatalf("cells simulated: seq %d %q, par %d %q; want the two before the bad cell, and all four good ones", len(seqRan), seqRan, len(parRan), parRan)
	}
}

// TestParallelSweepKillResume runs the supervised-sweep recovery story
// through the real loop (lifecycle.Supervisor.Sweep) under a 4-worker
// pool: a journaled parallel sweep is canceled mid-dispatch and then
// "killed" (the journal torn mid-record, as SIGKILL leaves it), and the
// resumed parallel sweep must execute exactly the specs the journal
// does not show complete, with a final aggregate identical to an
// uninterrupted run. Journal records land in completion order — resume
// must not care.
func TestParallelSweepKillResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	jobs := make([]lifecycle.Job, 12)
	for i := range jobs {
		jobs[i] = lifecycle.Job{Key: fmt.Sprintf("spec-%02d", i), Seed: 1}
	}
	runSpec := func(key string) sim.Result {
		return sim.Result{Cycles: uint64(1000 + len(key)*7 + int(key[len(key)-1])), Committed: uint64(len(key))}
	}

	// Phase 1: specs 4..7 occupy all four workers until spec 7 cancels
	// the sweep — once 4..6 are inside their attempts, since a worker
	// that has its spec but not yet started it would see the cancel and
	// never run — so the cancel lands while spec 8 waits for a worker.
	// Every spec past 8 is then certainly undispatched (spec 8 itself
	// may win the race for a freed worker and come back canceled by
	// the supervisor instead).
	j, err := lifecycle.Create(path, lifecycle.Record{Tool: "par-sweep"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started sync.WaitGroup
	started.Add(3)
	outs := lifecycle.New(lifecycle.Config{Journal: j}).Sweep(ctx, nil, 4, jobs, func(c context.Context, i int) (sim.Result, error) {
		switch {
		case i == 7:
			started.Wait()
			cancel()
		case i >= 4:
			started.Done()
		}
		if i >= 4 {
			<-c.Done()
		}
		return runSpec(jobs[i].Key), nil
	}, nil)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	before, size, err := lifecycle.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, out := range outs {
		_, journaled := before.Runs[jobs[i].Key]
		switch {
		case i < 8 && (out.Status != lifecycle.StatusOK || !journaled):
			t.Errorf("%s ran before the cancel: %+v (journaled %v), want ok and journaled", jobs[i].Key, out, journaled)
		case i >= 8 && out.Status != lifecycle.StatusCanceled:
			t.Errorf("%s was not dispatched before the cancel: %+v, want canceled", jobs[i].Key, out)
		case i > 8 && (out.Attempts != 0 || journaled):
			t.Errorf("undispatched %s: %d attempt(s), journaled %v, want neither", jobs[i].Key, out.Attempts, journaled)
		}
	}
	if err := os.Truncate(path, size-20); err != nil { // cut into the last record
		t.Fatal(err)
	}

	// Phase 2: resume with 4 workers. The torn record's spec plus the
	// never-run specs must execute; everything else must come from the
	// journal.
	j2, snap, err := lifecycle.Resume(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Runs) != len(before.Runs)-1 {
		t.Fatalf("torn journal shows %d records, want one fewer than the %d written", len(snap.Runs), len(before.Runs))
	}
	var missing []string
	for _, job := range jobs {
		if _, ok := snap.Completed(job.Key); !ok {
			missing = append(missing, job.Key)
		}
	}
	if len(missing) < 4 {
		t.Fatalf("journal shows only %v incomplete, want at least the four undispatched specs", missing)
	}
	var mu sync.Mutex
	var executed []string
	outs = lifecycle.New(lifecycle.Config{Journal: j2}).Sweep(context.Background(), snap, 4, jobs, func(_ context.Context, i int) (sim.Result, error) {
		mu.Lock()
		executed = append(executed, jobs[i].Key)
		mu.Unlock()
		return runSpec(jobs[i].Key), nil
	}, nil)
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}

	sort.Strings(executed)
	if fmt.Sprint(executed) != fmt.Sprint(missing) {
		t.Fatalf("resume executed %v, want exactly the missing specs %v", executed, missing)
	}
	for i, out := range outs {
		if out.Status != lifecycle.StatusOK || out.Result != runSpec(jobs[i].Key) {
			t.Fatalf("resumed aggregate diverges at %s: %+v", jobs[i].Key, out)
		}
	}
}
