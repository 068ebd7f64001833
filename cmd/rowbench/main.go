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
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"rowsim/internal/cli"
	"rowsim/internal/experiments"
	"rowsim/internal/lifecycle"
	"rowsim/internal/stats"
	"rowsim/internal/viz"
	"rowsim/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the figure harness under the lifecycle supervisor:
// SIGINT cancels the in-flight simulation at its next poll, panics
// are contained per run and retried, and a failed or interrupted
// figure exits with a structured report instead of a raw panic (the
// figure code itself still uses the MustRun convention, so the typed
// error arrives here as a panic payload).
func run(args []string, stdout, stderr io.Writer) (code int) {
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		err, ok := p.(error)
		if !ok {
			panic(p) // a real bug, not a run failure: keep the crash
		}
		fmt.Fprintln(stderr, err)
		if lifecycle.Classify(err) == lifecycle.ClassCanceled {
			code = 130
			return
		}
		code = 1
	}()
	stderr = cli.Synced(stderr) // progress lines come from the workers
	fs := cli.NewFlagSet("rowbench", stderr)
	var (
		fig       = fs.Int("fig", 0, "figure number to regenerate (1,2,4,5,6,8,9,10,11,12,13)")
		table     = fs.Int("table", 0, "table to regenerate (1 = system params, 2 = RoW hardware cost)")
		summary   = fs.Bool("summary", false, "print the Section VI headline summary")
		ablation  = fs.String("ablation", "", "ablation to run: entries, update, aq")
		scaling   = fs.Bool("scaling", false, "core-count scaling sweep")
		locks     = fs.Bool("locks", false, "synchronization-kernel study (tas/ticket/barrier)")
		stability = fs.Bool("stability", false, "multi-seed stability check")
		format    = fs.String("format", "text", "output format: text, csv, chart")
		all       = fs.Bool("all", false, "regenerate everything")
		cores     = fs.Int("cores", 32, "number of cores")
		instrs    = fs.Int("instrs", 0, "instructions per core (0 = experiment default)")
		seed      = fs.Uint64("seed", 1, "trace seed (0 selects the documented default seed)")
		wls       = fs.String("workloads", "", "comma-separated workload subset (default: the 13 atomic-intensive)")
		timeout   = fs.Duration("timeout", 0, "per-run wall-clock deadline (0 = off); timed-out runs retry")
		quiet     = fs.Bool("q", false, "suppress per-run progress")
		jobs      = fs.Int("jobs", 0, "parallel simulation workers for figure sweeps (<1 = GOMAXPROCS); output is identical for any value")
		prof      = cli.AddProfile(fs)
	)
	if code, ok := cli.Parse(fs, args); !ok {
		return code
	}

	if !prof.Start(stderr) {
		return 2
	}
	defer prof.Stop(&code, stderr)

	ctx, stop := cli.Context()
	defer stop()

	opt := experiments.Options{Cores: *cores, Instrs: *instrs, Seed: *seed}
	if *wls != "" {
		opt.Workloads = strings.Split(*wls, ",")
		for _, w := range opt.Workloads {
			if _, err := workload.Get(w); err != nil {
				fmt.Fprintln(stderr, err)
				return 2
			}
		}
	}
	r := experiments.NewRunner(opt)
	r.SetJobs(*jobs)
	r.SetContext(ctx)
	r.Supervise(lifecycle.New(lifecycle.Config{RunTimeout: *timeout}))
	if !*quiet {
		r.Progress = func(msg string) { fmt.Fprintln(stderr, msg) }
	}

	show := func(t *stats.Table) {
		switch *format {
		case "csv":
			fmt.Fprint(stdout, t.CSV())
		case "chart":
			fmt.Fprintln(stdout, t)
			if len(t.Headers) > 1 {
				if c := viz.NormChart(t, len(t.Headers)-1, 50); c != "" {
					fmt.Fprintln(stdout, c)
				}
			}
		default:
			fmt.Fprintln(stdout, t)
		}
		fmt.Fprintln(stdout)
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
	// Selections are checked before anything runs.
	if _, ok := figs[*fig]; !ok && *fig != 0 {
		fmt.Fprintf(stderr, "unknown figure %d\n", *fig)
		return 2
	}
	if _, ok := ablations[*ablation]; !ok && *ablation != "" {
		fmt.Fprintf(stderr, "unknown ablation %q (entries, update, aq)\n", *ablation)
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
		run = append(run, experiments.Summary,
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
			{*locks, experiments.LockStudy},
			{*stability, func(r *experiments.Runner) *stats.Table { return experiments.Stability(r, nil, opt.Workloads) }},
			{*ablation != "", ablations[*ablation]},
		} {
			if sel.on {
				run = append(run, sel.fn)
			}
		}
		if len(run) == 0 {
			fs.Usage()
			return 2
		}
	}
	for _, fn := range run {
		show(fn(r))
	}
	if !*quiet {
		fmt.Fprintf(stderr, "total wall time: %s; %s\n", time.Since(start).Round(time.Millisecond), r.SetupStats())
	}
	return 0
}
