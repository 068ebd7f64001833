// Command rowbench regenerates the paper's tables and figures as text
// tables.
//
// Examples:
//
//	rowbench -fig 1            # Fig. 1: eager vs lazy
//	rowbench -fig 9            # Fig. 9: RoW variants
//	rowbench -table 1          # Table I: system parameters
//	rowbench -summary          # Section VI headline numbers
//	rowbench -ablation entries # predictor-size ablation
//	rowbench -all              # everything (long)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rowsim/internal/experiments"
	"rowsim/internal/lifecycle"
	"rowsim/internal/profiling"
	"rowsim/internal/sim"
	"rowsim/internal/stats"
	"rowsim/internal/viz"
	"rowsim/internal/workload"
)

func main() {
	os.Exit(run())
}

// run executes the figure harness under the lifecycle supervisor:
// SIGINT cancels the in-flight simulation at its next poll, panics
// are contained per run and retried, and a failed or interrupted
// figure exits with a structured report instead of a raw panic (the
// figure code itself still uses the MustRun convention, so the typed
// error arrives here as a panic payload).
func run() (code int) {
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		err, ok := p.(error)
		if !ok {
			panic(p) // a real bug, not a run failure: keep the crash
		}
		fmt.Fprintln(os.Stderr, err)
		if lifecycle.Classify(err) == lifecycle.ClassCanceled {
			code = 130
			return
		}
		code = 1
	}()
	var (
		fig       = flag.Int("fig", 0, "figure number to regenerate (1,2,4,5,6,8,9,10,11,12,13)")
		table     = flag.Int("table", 0, "table to regenerate (1 = system params, 2 = RoW hardware cost)")
		summary   = flag.Bool("summary", false, "print the Section VI headline summary")
		ablation  = flag.String("ablation", "", "ablation to run: entries, update, aq")
		scaling   = flag.Bool("scaling", false, "core-count scaling sweep")
		far       = flag.Bool("far", false, "far-vs-near atomics comparison")
		locks     = flag.Bool("locks", false, "synchronization-kernel study (tas/ticket/barrier)")
		stability = flag.Bool("stability", false, "multi-seed stability check")
		format    = flag.String("format", "text", "output format: text, csv, chart")
		all       = flag.Bool("all", false, "regenerate everything")
		cores     = flag.Int("cores", 32, "number of cores")
		instrs    = flag.Int("instrs", 0, "instructions per core (0 = experiment default)")
		seed      = flag.Uint64("seed", 1, "trace seed (0 selects the documented default seed)")
		wls       = flag.String("workloads", "", "comma-separated workload subset (default: the 13 atomic-intensive)")
		timeout   = flag.Duration("timeout", 0, "per-run wall-clock deadline (0 = off); timed-out runs retry")
		quiet     = flag.Bool("q", false, "suppress per-run progress")
		jobs      = flag.Int("jobs", 0, "parallel simulation workers for figure sweeps (<1 = GOMAXPROCS); output is identical for any value")
		schedFlag = flag.String("sched", "event", "simulation scheduler: event (skip idle cycles) or cycle (tick every cycle); results are identical")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		traceFile  = flag.String("trace", "", "write a runtime execution trace to this file")
	)
	flag.Parse()

	sched, err := sim.ParseScheduler(*schedFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	stopProf, err := profiling.Start(*cpuprofile, *memprofile, *traceFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			if code == 0 {
				code = 1
			}
		}
	}()

	// os.Interrupt covers Ctrl-C; SIGTERM is what containers and
	// orchestrators send — both get the same graceful drain.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opt := experiments.Options{Cores: *cores, Instrs: *instrs, Seed: *seed, Sched: sched}
	if *wls != "" {
		opt.Workloads = strings.Split(*wls, ",")
		for _, w := range opt.Workloads {
			if _, err := workload.Get(w); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 2 // not os.Exit: the deferred profile stop must run
			}
		}
	}
	r := experiments.NewRunner(opt)
	r.SetJobs(*jobs)
	r.SetContext(ctx)
	r.Supervise(lifecycle.New(lifecycle.Config{RunTimeout: *timeout, JitterSeed: r.Options().Seed}))
	if !*quiet {
		r.Progress = func(msg string) { fmt.Fprintln(os.Stderr, msg) }
	}

	show := func(t *stats.Table) {
		switch *format {
		case "csv":
			fmt.Print(t.CSV())
		case "chart":
			fmt.Println(t)
			if len(t.Headers) > 1 {
				if c := viz.NormChart(t, len(t.Headers)-1, 50); c != "" {
					fmt.Println(c)
				}
			}
		default:
			fmt.Println(t)
		}
		fmt.Println()
	}
	type tableFn = func(*experiments.Runner) *stats.Table
	figs := map[int][]tableFn{
		1: {experiments.Fig1}, 2: {experiments.Fig2}, 4: {experiments.Fig4}, 5: {experiments.Fig5},
		6: {experiments.Fig6}, 8: {experiments.Fig8Race, experiments.LockTails}, 9: {experiments.Fig9},
		10: {experiments.Fig10}, 11: {experiments.Fig11}, 12: {experiments.Fig12}, 13: {experiments.Fig13},
	}
	ablations := map[string]tableFn{
		"entries": experiments.AblationEntries, "update": experiments.AblationUpdate, "aq": experiments.AblationAQSize,
	}
	// Selections are checked before anything runs, and a bad one returns
	// (never os.Exit) so the deferred profile stop still runs.
	if _, ok := figs[*fig]; !ok && *fig != 0 {
		fmt.Fprintf(os.Stderr, "unknown figure %d\n", *fig)
		return 2
	}
	if _, ok := ablations[*ablation]; !ok && *ablation != "" {
		fmt.Fprintf(os.Stderr, "unknown ablation %q (entries, update, aq)\n", *ablation)
		return 2
	}
	start := time.Now()
	table1 := func(*experiments.Runner) *stats.Table { return experiments.Table1() }
	var run []tableFn
	if *all {
		run = append(run, table1)
		for _, n := range []int{1, 2, 4, 5, 6, 8, 9, 10, 11, 12, 13} {
			run = append(run, figs[n]...)
		}
		run = append(run, experiments.Summary, experiments.FarVsNear,
			experiments.AblationEntries, experiments.AblationUpdate, experiments.AblationAQSize)
	} else {
		run = append(run, figs[*fig]...)
		for _, sel := range []struct {
			on bool
			fn tableFn
		}{
			{*table == 1, table1},
			{*table == 2, func(*experiments.Runner) *stats.Table { return experiments.HardwareCost() }},
			{*summary, experiments.Summary},
			{*scaling, func(r *experiments.Runner) *stats.Table { return experiments.Scaling(r, opt.Workloads) }},
			{*far, experiments.FarVsNear},
			{*locks, experiments.LockStudy},
			{*stability, func(r *experiments.Runner) *stats.Table { return experiments.Stability(r, nil, opt.Workloads) }},
			{*ablation != "", ablations[*ablation]},
		} {
			if sel.on {
				run = append(run, sel.fn)
			}
		}
		if len(run) == 0 {
			flag.Usage()
			return 2
		}
	}
	for _, fn := range run {
		show(fn(r))
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "total wall time: %s; %s\n", time.Since(start).Round(time.Millisecond), r.SetupStats())
	}
	return 0
}
