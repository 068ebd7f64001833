// Command rowsweep sweeps one workload parameter and reports how the
// eager/lazy/RoW comparison responds — the tool behind the kind of
// sensitivity studies Section VI performs on the latency threshold,
// applied to workload characteristics instead.
//
//	rowsweep -workload sps -param sharedfrac -values 0.1,0.3,0.5,0.7,0.9
//	rowsweep -workload pc -param hotlines -values 1,2,4,8,16 -format csv
//	rowsweep -workload cq -param atomics10k -values 10,25,50,100
//
// Every run executes under the lifecycle supervisor: -timeout bounds
// one run's wall-clock time, -deadline the whole sweep's, transient
// failures retry with backoff, and -journal streams each outcome to a
// crash-safe JSONL log. A sweep killed mid-way (SIGINT or SIGKILL)
// resumes from its journal:
//
//	rowsweep ... -journal sweep.jsonl        # interrupted at cell 7/15
//	rowsweep -resume sweep.jsonl             # re-runs only the missing cells
//
// Resume re-reads the sweep definition from the journal's meta record,
// so no other flags are needed; completed runs are served from the
// journal and the final table is identical to an uninterrupted sweep.
package main

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"rowsim/internal/checkpoint"
	"rowsim/internal/experiments"
	"rowsim/internal/lifecycle"
	"rowsim/internal/profiling"
	"rowsim/internal/serve"
	"rowsim/internal/sim"
	"rowsim/internal/stats"
)

func main() {
	os.Exit(run())
}

func run() (code int) {
	var (
		name    = flag.String("workload", "sps", "base workload")
		param   = flag.String("param", "sharedfrac", "parameter to sweep: "+strings.Join(serve.ParamNames(), ", "))
		values  = flag.String("values", "0.1,0.5,0.9", "comma-separated sweep values")
		cores   = flag.Int("cores", 32, "number of cores")
		instrs  = flag.Int("instrs", 8000, "instructions per core")
		seed    = flag.Uint64("seed", 1, "trace seed (0 selects the documented default seed)")
		schedF  = flag.String("sched", "event", "simulation scheduler: event (skip idle cycles) or cycle (tick every cycle); results are identical")
		format  = flag.String("format", "text", "output format: text, csv")
		journal = flag.String("journal", "", "write a crash-safe JSONL run journal to this path")
		resume  = flag.String("resume", "", "resume an interrupted sweep from its journal (re-runs only missing cells)")
		timeout = flag.Duration("timeout", 0, "per-run wall-clock deadline (0 = off); timed-out runs retry")
		deadlin = flag.Duration("deadline", 0, "whole-sweep wall-clock deadline (0 = off)")
		retries = flag.Int("retries", 3, "attempt budget per run for transient failures (timeout, panic)")
		jobs    = flag.Int("jobs", 0, "parallel sweep workers (<1 = GOMAXPROCS); aggregate output is identical for any value")

		ckptEvery  = flag.Uint64("checkpoint-every", 0, "write a durable per-cell checkpoint every N simulated cycles (0 = off); interrupted or retried cells resume from it")
		resumeFrom = flag.String("resume-from", "", "directory holding mid-run checkpoints from a previous invocation (default: derived from the journal path when -checkpoint-every is set)")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		traceFile  = flag.String("trace", "", "write a runtime execution trace to this file")
	)
	flag.Parse()
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	stopProf, err := profiling.Start(*cpuprofile, *memprofile, *traceFile)
	if err != nil {
		return fail(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			if code == 0 {
				code = 1
			}
		}
	}()

	// Seed 0 means "the default": resolve it here so the journal and
	// every repro record carry the real seed, never the ambiguous 0.
	if *seed == 0 {
		*seed = experiments.DefaultSeed
	}

	// os.Interrupt covers Ctrl-C; SIGTERM is what containers and
	// orchestrators send — both get the same graceful drain.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *deadlin > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadlin)
		defer cancel()
	}

	// The sweep's definition is these seven flags: a new journal records
	// them, a resumed one restores them (convenience flags like -timeout,
	// -deadline and -retries still come from the command line).
	jnl, snap, err := lifecycle.OpenSweep(flag.CommandLine, "rowsweep", *journal, *resume,
		"workload", "param", "values", "cores", "instrs", "seed", "sched")
	if err != nil {
		return fail(err)
	}
	// A journal problem must be loud: a silent one makes resume lie.
	defer func() {
		if err := jnl.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "journal error: %v\n", err)
			if code == 0 {
				code = 1
			}
		}
	}()

	// One checkpoint file per cell, named by the cell's content key, so
	// a resume matches them without a manifest.
	ckptDir, err := checkpoint.OpenDir(*resumeFrom, cmp.Or(*resume, *journal, "rowsweep"), *ckptEvery)
	if err != nil {
		return fail(err)
	}
	sched, err := sim.ParseScheduler(*schedF)
	if err != nil {
		return fail(err)
	}

	// From here on the sweep is a serve.SweepSpec, the same one a client
	// would POST to rowserve: cells, keys, configuration and content keys
	// are the daemon's. Only its admission limits are not applied.
	spec := serve.SweepSpec{Workload: *name, Param: *param, Cores: *cores, Instrs: *instrs, Seed: *seed}
	for _, raw := range strings.Split(*values, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(raw), 64)
		if err != nil {
			return fail(fmt.Errorf("bad value %q: %v", raw, err))
		}
		spec.Values = append(spec.Values, v)
	}
	if err := spec.Resolve(); err != nil {
		return fail(err)
	}
	cells, sweep, err := spec.Jobs(ckptDir)
	if err != nil {
		return fail(err)
	}

	sup := lifecycle.New(lifecycle.Config{
		MaxAttempts: *retries,
		RunTimeout:  *timeout,
		JitterSeed:  *seed,
		Journal:     jnl,
	})
	// Cells are independent deterministic simulations, so they fan out
	// across workers; the journal records outcomes in completion order,
	// but outs is in sweep order and the table below is byte-identical
	// for any worker count.
	note := func(i int, format string, args ...any) {
		fmt.Fprintf(os.Stderr, "%-30s %s\n", cells[i].Key, fmt.Sprintf(format, args...))
	}
	setup := experiments.NewSetup(experiments.Jobs(*jobs))
	outs := sup.Sweep(ctx, snap, *jobs, sweep, func(runCtx context.Context, i int) (sim.Result, error) {
		return spec.Run(runCtx, cells[i], setup, ckptDir, *ckptEvery, func(cycle uint64, warn error) {
			if warn != nil {
				note(i, "checkpoint unusable, starting fresh: %v", warn)
			} else {
				note(i, "resumed from checkpoint at cycle %d", cycle)
			}
		}, sim.WithScheduler(sched))
	}, func(i int, out *lifecycle.Outcome, ran bool) {
		switch {
		case !out.Status.Terminal():
			return // canceled: its checkpoint stays for the next invocation
		case !ran:
			note(i, "resumed from journal")
		case out.Status == lifecycle.StatusOK:
			note(i, "ok (%d attempt(s))", out.Attempts)
		default:
			// Degrade gracefully: record and keep sweeping.
			note(i, "%s after %d attempt(s): %v", out.Status, out.Attempts, out.Err)
		}
		// Done, now or in the journal (where a kill between the append
		// and this removal strands the files): no future use.
		checkpoint.Remove(sweep[i].Checkpoint)
	})

	fmt.Fprintln(os.Stderr, setup.Stats())

	for _, out := range outs {
		if out.Status == lifecycle.StatusCanceled {
			hint := ""
			if jnl != nil {
				hint = fmt.Sprintf(" — resume with: rowsweep -resume %s", jnl.Path())
			}
			fmt.Fprintf(os.Stderr, "sweep interrupted%s\n", hint)
			return 130
		}
	}

	t := &stats.Table{
		Title:   fmt.Sprintf("Sweep of %s over %s", spec.Param, spec.Workload),
		Headers: []string{spec.Param, "eager-cycles", "lazy/eager", "row(Sat)/eager", "%contended"},
	}
	for i, v := range spec.Values {
		// A row is one value's cells: serve.DefaultPolicies' trio, in order.
		eager, lazy, row := outs[3*i], outs[3*i+1], outs[3*i+2]
		if eager.Status == lifecycle.StatusOK && lazy.Status == lifecycle.StatusOK && row.Status == lifecycle.StatusOK {
			t.AddRow(serve.FormatValue(v),
				fmt.Sprint(eager.Result.Cycles),
				stats.F(float64(lazy.Result.Cycles)/float64(eager.Result.Cycles)),
				stats.F(float64(row.Result.Cycles)/float64(eager.Result.Cycles)),
				stats.Pct(eager.Result.ContendedFrac))
			continue
		}
		// A degraded cell keeps its row (with the failure mode) instead
		// of aborting the sweep.
		t.AddRow(serve.FormatValue(v), string(eager.Status), string(lazy.Status), string(row.Status), "—")
	}
	if *format == "csv" {
		fmt.Print(t.CSV())
	} else {
		fmt.Println(t)
	}
	return 0
}
