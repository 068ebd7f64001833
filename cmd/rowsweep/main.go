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
// failures retry at once, and -journal streams each outcome to a
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
	"context"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"rowsim/internal/checkpoint"
	"rowsim/internal/cli"
	"rowsim/internal/experiments"
	"rowsim/internal/lifecycle"
	"rowsim/internal/serve"
	"rowsim/internal/sim"
	"rowsim/internal/stats"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) (code int) {
	stderr = cli.Synced(stderr) // progress lines come from the workers
	fs := cli.NewFlagSet("rowsweep", stderr)
	var (
		name   = fs.String("workload", "sps", "base workload")
		param  = fs.String("param", "sharedfrac", "parameter to sweep: "+strings.Join(serve.ParamNames(), ", "))
		values = cli.NewList("0.1,0.5,0.9", parseFloats)
		cores  = fs.Int("cores", 32, "number of cores")
		instrs = fs.Int("instrs", 8000, "instructions per core")
		seed   = fs.Uint64("seed", 1, "trace seed (0 selects the documented default seed)")
		format = fs.String("format", "text", "output format: text, csv")
		jobs   = fs.Int("jobs", 0, "parallel sweep workers (<1 = GOMAXPROCS); aggregate output is identical for any value")
		sw     = cli.AddSweep(fs, "rowsweep", 3)
		prof   = cli.AddProfile(fs)
	)
	fs.Var(values, "values", "comma-separated sweep values")
	if code, ok := cli.Parse(fs, args); !ok {
		return code
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, err)
		return 2
	}

	if !prof.Start(stderr) {
		return 2
	}
	defer prof.Stop(&code, stderr)

	// Seed 0 means "the default": resolve it here so the journal and
	// every repro record carry the real seed, never the ambiguous 0.
	if *seed == 0 {
		*seed = experiments.DefaultSeed
	}

	ctx, stop := sw.Context()
	defer stop()

	// The sweep's definition is these six flags: a new journal records
	// them, a resumed one restores them (convenience flags like -timeout,
	// -deadline and -retries still come from the command line). A
	// journal that also records -sched, as older builds wrote, is from
	// model 0: like a journal of any other model it is kept beside a
	// fresh journal, and every cell re-runs.
	defer sw.Close(&code, stderr)
	if err := sw.Open(fs, "workload", "param", "values", "cores", "instrs", "seed"); err != nil {
		return fail(err)
	}

	// From here on the sweep is a serve.SweepSpec, the same one a client
	// would POST to rowserve: cells, keys, configuration and content keys
	// are the daemon's. Only its admission limits are not applied.
	spec := serve.SweepSpec{Workload: *name, Param: *param, Values: values.Values, Cores: *cores, Instrs: *instrs, Seed: *seed}
	if err := spec.Resolve(); err != nil {
		return fail(err)
	}
	cells, sweep, err := spec.Jobs(sw.CheckpointDir)
	if err != nil {
		return fail(err)
	}

	sup := lifecycle.New(lifecycle.Config{
		MaxAttempts: sw.Retries,
		RunTimeout:  sw.Timeout,
		Journal:     sw.Journal,
	})
	// Cells are independent deterministic simulations, so they fan out
	// across workers; the journal records outcomes in completion order,
	// but outs is in sweep order and the table below is byte-identical
	// for any worker count.
	note := func(i int, format string, args ...any) {
		fmt.Fprintf(stderr, "%-30s %s\n", cells[i].Key, fmt.Sprintf(format, args...))
	}
	setup := experiments.NewSetup(experiments.Jobs(*jobs))
	outs := sup.Sweep(ctx, sw.Snap, *jobs, sweep, func(runCtx context.Context, i int) (sim.Result, error) {
		return spec.Run(runCtx, cells[i], setup, sw.CheckpointDir, sw.CheckpointEvery, func(cycle uint64, warn error) {
			if warn != nil {
				note(i, "checkpoint unusable, starting fresh: %v", warn)
			} else {
				note(i, "resumed from checkpoint at cycle %d", cycle)
			}
		})
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

	fmt.Fprintln(stderr, setup.Stats())

	for _, out := range outs {
		if out.Status == lifecycle.StatusCanceled {
			return sw.Interrupted(stderr)
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
		fmt.Fprint(stdout, t.CSV())
	} else {
		fmt.Fprintln(stdout, t)
	}
	return 0
}

func parseFloats(s string) ([]float64, error) {
	var vs []float64
	for _, raw := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(raw), 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q: %v", raw, err)
		}
		vs = append(vs, v)
	}
	return vs, nil
}
