// Command rowtorture runs the randomized protocol torture sweep, or
// reproduces a single failing run from its printed seed line.
//
// Sweep mode (the default):
//
//	rowtorture -n 200 -seed 7 -workers 8
//
// runs 200 randomized (seed × workload × variant × fault-config)
// simulations, draining each one and checking that it ended with no
// message lost and no line incoherent, and replaying a sample for
// byte-identical determinism. Every failure is printed as a one-line
// re-runnable reproduction.
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
//	rowtorture -replay 'mcheck v1 cores=2 lines=1 banks=1 mode=eager bug=getx-as-gets prog=... trace=...'
package main

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"rowsim/internal/cli"
	"rowsim/internal/faults"
	"rowsim/internal/mcheck"
	"rowsim/internal/torture"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) (code int) {
	stdout = cli.Synced(stdout) // progress lines come from the workers
	fs := cli.NewFlagSet("rowtorture", stderr)
	var (
		n       = fs.Int("n", 100, "sweep: number of randomized configs")
		workers = fs.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
		seed    = fs.Uint64("seed", 1, "sweep master seed, or the trace seed in repro mode")
		wl      = fs.String("wl", "", "repro mode: workload name (enables repro mode)")
		variant = fs.String("variant", "Eager", "repro mode: variant name")
		cores   = cli.NewList("4,8", parseInts)
		instrs  = cli.NewList("1000,2500", parseInts)
		spec    = fs.String("faults", "none", "repro mode: fault spec, e.g. jitter=0.5:16,reorder=0.05:64")
		replay  = fs.Int("replay-every", 5, "replay every Nth run for determinism (0 = off)")
		budget  = fs.Uint64("max-cycles", 20_000_000, "per-run cycle budget (simulated cycles)")
		verbose = fs.Bool("v", false, "print a line per run")
		witness = fs.String("replay", "", "replay a rowcheck witness spec (mcheck v1 ...)")
		sw      = cli.AddSweep(fs, "rowtorture", 1)
	)
	fs.Var(cores, "cores", "core-count choices (sweep) or the core count (repro)")
	fs.Var(instrs, "instrs", "per-core instruction choices (sweep) or the count (repro)")
	if code, ok := cli.Parse(fs, args); !ok {
		return code
	}

	if *witness != "" {
		return replayWitness(*witness, stdout, stderr)
	}

	if *wl != "" {
		return repro(torture.RunSpec{
			Seed:      *seed,
			Workload:  *wl,
			Variant:   *variant,
			MaxCycles: *budget,
		}, cores, instrs, *spec, stdout, stderr)
	}

	// The sweep's definition is these six flags: a new journal records
	// them, a resumed one restores them and refuses a conflicting one.
	// A journaled name this build has no flag for is ignored: older
	// journals also record a coherence-check interval, a flag gone
	// since the check runs once after every run. A journal that records
	// -sched, as older builds wrote, is from model 0: like a journal of
	// any other model it is kept beside a fresh journal, and every cell
	// re-runs.
	defer sw.Close(&code, stderr)
	if err := sw.Open(fs, "n", "seed", "cores", "instrs", "replay-every", "max-cycles"); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	ctx, stop := sw.Context()
	defer stop()

	opt := torture.Options{
		Runs:            *n,
		Workers:         *workers,
		Seed:            *seed,
		Cores:           cores.Values,
		Instrs:          instrs.Values,
		ReplayEvery:     *replay,
		MaxCycles:       *budget,
		Ctx:             ctx,
		RunTimeout:      sw.Timeout,
		MaxAttempts:     sw.Retries,
		Journal:         sw.Journal,
		Resume:          sw.Snap,
		CheckpointDir:   sw.CheckpointDir,
		CheckpointEvery: sw.CheckpointEvery,
	}
	if *verbose {
		opt.Progress = func(msg string) { fmt.Fprintln(stdout, msg) }
	}
	sum := torture.Torture(opt)
	fmt.Fprintln(stdout, sum)
	if !sum.OK() {
		return 1
	}
	if sum.Canceled > 0 {
		return sw.Interrupted(stderr)
	}
	return 0
}

// repro re-executes one run, rs completed by the single -cores, -instrs
// and -faults values, and reports its outcome; the exit code is 0 only
// when the run completes cleanly.
func repro(rs torture.RunSpec, cores, instrs *cli.List[int], spec string, stdout, stderr io.Writer) int {
	var err error
	if rs.Faults, err = faults.ParseSpec(spec); err == nil {
		if rs.Cores, err = one(cores); err == nil {
			rs.Instrs, err = one(instrs)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	fmt.Fprintln(stdout, rs.ReproLine())
	res, err := torture.Execute(rs)
	if err != nil {
		fmt.Fprintf(stderr, "FAIL [%s]\n%v\n", torture.Classify(err), err)
		return 1
	}
	fmt.Fprintf(stdout, "ok: %d cycles, %d committed, IPC %.2f, %d network messages\n",
		res.Cycles, res.Committed, res.IPC, res.NetworkMessages)
	return 0
}

// replayWitness strictly re-executes a rowcheck counterexample. Exit 1
// when the violation reproduces (the expected outcome for a live bug),
// 0 when the trace replays cleanly (the bug is fixed), 2 on a spec that
// no longer applies.
func replayWitness(spec string, stdout, stderr io.Writer) int {
	res, err := mcheck.Replay(spec)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if v := res.Violation; v != nil {
		fmt.Fprintf(stdout, "reproduced [%s] after %d choices: %s\n", torture.Classify(v), len(v.Trace), v.Detail)
		return 1
	}
	fmt.Fprintf(stdout, "ok: witness replayed cleanly (%d choices) — violation not reproduced\n", res.Stats.Transitions)
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

// one is the single value repro mode wants of a list flag.
func one(l *cli.List[int]) (int, error) {
	if len(l.Values) != 1 {
		return 0, fmt.Errorf("repro mode wants a single value, got %q", l)
	}
	return l.Values[0], nil
}
