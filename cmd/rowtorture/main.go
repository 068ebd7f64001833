// Command rowtorture runs the randomized protocol torture sweep, or
// reproduces a single failing run from its printed seed line.
//
// Sweep mode (the default):
//
//	rowtorture -n 200 -seed 7 -workers 8
//
// runs 200 randomized (seed × workload × variant × fault-config)
// simulations, verifying the coherence invariants during each run and
// replaying a sample for byte-identical determinism. Every failure is
// printed as a one-line re-runnable reproduction.
//
// The sweep runs supervised: -timeout bounds one run's wall-clock
// time, -deadline the whole sweep's, and -journal streams outcomes to
// a crash-safe JSONL log. SIGINT drains in-flight runs into the
// journal; an interrupted (or SIGKILLed) sweep continues with
//
//	rowtorture -resume torture.jsonl
//
// which re-reads the sweep definition from the journal's meta record
// and re-runs only the specs that did not complete successfully.
//
// Reproduction mode (triggered by -wl):
//
//	rowtorture -seed 0x3a41 -wl cq -variant "RW+Dir_Sat" -cores 8 -instrs 2500 -faults "jitter=0.5:16"
//
// re-executes exactly that run and prints its outcome.
//
// Witness-replay mode (triggered by -replay) re-executes a one-line
// counterexample emitted by the rowcheck model checker against the
// real component stack and reports whether the invariant violation
// reproduces:
//
//	rowtorture -replay 'mcheck v1 cores=2 lines=1 banks=1 mode=eager net=fifo bug=getx-as-gets prog=... trace=...'
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
	"rowsim/internal/faults"
	"rowsim/internal/lifecycle"
	"rowsim/internal/mcheck"
	"rowsim/internal/sim"
	"rowsim/internal/torture"
)

func main() {
	os.Exit(run())
}

func run() (code int) {
	var (
		n       = flag.Int("n", 100, "sweep: number of randomized configs")
		workers = flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
		seed    = flag.Uint64("seed", 1, "sweep master seed, or the trace seed in repro mode")
		wl      = flag.String("wl", "", "repro mode: workload name (enables repro mode)")
		variant = flag.String("variant", "Eager", "repro mode: variant name")
		cores   = flag.String("cores", "4,8", "core-count choices (sweep) or the core count (repro)")
		instrs  = flag.String("instrs", "1000,2500", "per-core instruction choices (sweep) or the count (repro)")
		spec    = flag.String("faults", "none", "repro mode: fault spec, e.g. jitter=0.5:16,reorder=0.05:64")
		replay  = flag.Int("replay-every", 5, "replay every Nth run for determinism (0 = off)")
		check   = flag.Uint64("check-every", 4096, "coherence-invariant check interval in cycles (0 = off)")
		budget  = flag.Uint64("max-cycles", 20_000_000, "per-run cycle budget (simulated cycles)")
		schedF  = flag.String("sched", "event", "scheduler for primary runs: event or cycle; determinism replays run under the opposite one")
		journal = flag.String("journal", "", "write a crash-safe JSONL run journal to this path")
		resume  = flag.String("resume", "", "resume an interrupted sweep from its journal")
		timeout = flag.Duration("timeout", 0, "per-run wall-clock deadline (0 = off); timed-out runs retry")
		deadlin = flag.Duration("deadline", 0, "whole-sweep wall-clock deadline (0 = off)")
		retries = flag.Int("retries", 1, "attempt budget per run for transient failures (timeout, panic)")
		verbose = flag.Bool("v", false, "print a line per run")
		witness = flag.String("replay", "", "replay a rowcheck witness spec (mcheck v1 ...)")

		ckptEvery  = flag.Uint64("checkpoint-every", 0, "write a durable per-run checkpoint every N simulated cycles (0 = off); interrupted or retried runs resume from it")
		resumeFrom = flag.String("resume-from", "", "directory holding mid-run checkpoints from a previous invocation (default: derived from the journal path when -checkpoint-every is set)")
	)
	flag.Parse()

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if *witness != "" {
		return replayWitness(*witness)
	}

	if *wl != "" {
		return repro(*seed, *wl, *variant, *cores, *instrs, *spec, *check, *budget, *schedF)
	}

	// The sweep's definition is these eight flags: a new journal records
	// them, a resumed one restores them and refuses a conflicting one.
	jnl, snap, err := lifecycle.OpenSweep(flag.CommandLine, "rowtorture", *journal, *resume,
		"n", "seed", "cores", "instrs", "replay-every", "check-every", "max-cycles", "sched")
	if err != nil {
		return fail(err)
	}
	// A journal problem must be loud: a silent one makes resume lie.
	defer func() {
		if err := jnl.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "journal error: %v\n", err)
			code = 1
		}
	}()
	sched, err := sim.ParseScheduler(*schedF)
	if err != nil {
		return fail(err)
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

	// One checkpoint file per run spec, named by its content key.
	ckptDir, err := checkpoint.OpenDir(*resumeFrom, cmp.Or(*resume, *journal, "rowtorture"), *ckptEvery)
	if err != nil {
		return fail(err)
	}

	coreChoices, err := parseInts(*cores)
	if err != nil {
		return fail(err)
	}
	instrChoices, err := parseInts(*instrs)
	if err != nil {
		return fail(err)
	}

	opt := torture.Options{
		Runs:            *n,
		Workers:         *workers,
		Seed:            *seed,
		Sched:           sched,
		Cores:           coreChoices,
		Instrs:          instrChoices,
		ReplayEvery:     *replay,
		CheckEvery:      *check,
		MaxCycles:       *budget,
		Ctx:             ctx,
		RunTimeout:      *timeout,
		MaxAttempts:     *retries,
		Journal:         jnl,
		Resume:          snap,
		CheckpointDir:   ckptDir,
		CheckpointEvery: *ckptEvery,
	}
	if *verbose {
		opt.Progress = func(msg string) { fmt.Println(msg) }
	}
	sum := torture.Torture(opt)
	fmt.Println(sum)
	if !sum.OK() {
		return 1
	}
	if sum.Canceled > 0 {
		hint := ""
		if jnl != nil {
			hint = fmt.Sprintf(" — resume with: rowtorture -resume %s", jnl.Path())
		}
		fmt.Fprintf(os.Stderr, "sweep interrupted%s\n", hint)
		return 130
	}
	return 0
}

// repro re-executes one run and reports its outcome; the exit code is
// 0 only when the run completes cleanly.
func repro(seed uint64, wl, variant, coresStr, instrsStr, spec string, check, budget uint64, schedStr string) int {
	fc, err := faults.ParseSpec(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	sched, err := sim.ParseScheduler(schedStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	cores, err := one(coresStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	instrs, err := one(instrsStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	rs := torture.RunSpec{
		Seed:       seed,
		Workload:   wl,
		Variant:    variant,
		Cores:      cores,
		Instrs:     instrs,
		Faults:     fc,
		CheckEvery: check,
		MaxCycles:  budget,
		Sched:      sched,
	}
	fmt.Println(rs.ReproLine())
	res, err := torture.Execute(rs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "FAIL [%s]\n%v\n", torture.Classify(err), err)
		return 1
	}
	fmt.Printf("ok: %d cycles, %d committed, IPC %.2f, %d network messages\n",
		res.Cycles, res.Committed, res.IPC, res.NetworkMessages)
	return 0
}

// replayWitness strictly re-executes a rowcheck counterexample. Exit 1
// when the violation reproduces (the expected outcome for a live bug),
// 0 when the trace replays cleanly (the bug is fixed), 2 on a spec that
// no longer applies.
func replayWitness(spec string) int {
	res, err := mcheck.Replay(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if v := res.Violation; v != nil {
		fmt.Printf("reproduced [%s] after %d choices: %s\n", torture.Classify(v), len(v.Trace), v.Detail)
		return 1
	}
	fmt.Printf("ok: witness replayed cleanly (%d choices) — violation not reproduced\n", res.Stats.Transitions)
	return 0
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad integer list %q: %v", s, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// one parses a single integer flag that shares syntax with a list.
func one(s string) (int, error) {
	vs, err := parseInts(s)
	if err == nil && len(vs) != 1 {
		err = fmt.Errorf("repro mode wants a single value, got %q", s)
	}
	if err != nil {
		return 0, err
	}
	return vs[0], nil
}
