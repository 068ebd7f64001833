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
				os.Exit(2)
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
	start := time.Now()
	ran := false
	runFig := func(n int) {
		ran = true
		switch n {
		case 1:
			show(experiments.Fig1(r))
		case 2:
			show(experiments.Fig2(r))
		case 4:
			show(experiments.Fig4(r))
		case 5:
			show(experiments.Fig5(r))
		case 6:
			show(experiments.Fig6(r))
		case 8:
			show(experiments.Fig8Race(r))
			show(experiments.LockTails(r))
		case 9:
			show(experiments.Fig9(r))
		case 10:
			show(experiments.Fig10(r))
		case 11:
			show(experiments.Fig11(r))
		case 12:
			show(experiments.Fig12(r))
		case 13:
			show(experiments.Fig13(r))
		default:
			fmt.Fprintf(os.Stderr, "unknown figure %d\n", n)
			os.Exit(2)
		}
	}

	if *all {
		show(experiments.Table1())
		for _, n := range []int{1, 2, 4, 5, 6, 8, 9, 10, 11, 12, 13} {
			runFig(n)
		}
		show(experiments.Summary(r))
		show(experiments.FarVsNear(r))
		show(experiments.AblationEntries(r))
		show(experiments.AblationUpdate(r))
		show(experiments.AblationAQSize(r))
	} else {
		if *fig != 0 {
			runFig(*fig)
		}
		if *table == 1 {
			ran = true
			show(experiments.Table1())
		}
		if *table == 2 {
			ran = true
			show(experiments.HardwareCost())
		}
		if *summary {
			ran = true
			show(experiments.Summary(r))
		}
		if *scaling {
			ran = true
			show(experiments.Scaling(r, opt.Workloads))
		}
		if *far {
			ran = true
			show(experiments.FarVsNear(r))
		}
		if *locks {
			ran = true
			show(experiments.LockStudy(r))
		}
		if *stability {
			ran = true
			show(experiments.Stability(r, nil, opt.Workloads))
		}
		switch *ablation {
		case "":
		case "entries":
			ran = true
			show(experiments.AblationEntries(r))
		case "update":
			ran = true
			show(experiments.AblationUpdate(r))
		case "aq":
			ran = true
			show(experiments.AblationAQSize(r))
		default:
			fmt.Fprintf(os.Stderr, "unknown ablation %q (entries, update, aq)\n", *ablation)
			os.Exit(2)
		}
		if !ran {
			flag.Usage()
			os.Exit(2)
		}
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "total wall time: %s\n", time.Since(start).Round(time.Millisecond))
	}
	return 0
}
