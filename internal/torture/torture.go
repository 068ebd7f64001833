// Package torture is the randomized protocol torture harness: it runs
// many (seed × workload × variant × fault-config) simulations across
// worker goroutines, drains each run and checks that it ended quiet and
// coherent, replays a sample of runs to verify deterministic reproduction, and
// reports every failure as a one-line re-runnable command. It is the
// regression safety net every perf or protocol change runs against.
package torture

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"rowsim/internal/checkpoint"
	"rowsim/internal/coherence"
	"rowsim/internal/experiments"
	"rowsim/internal/faults"
	"rowsim/internal/lifecycle"
	"rowsim/internal/mcheck"
	"rowsim/internal/sim"
	"rowsim/internal/workload"
	"rowsim/internal/xrand"
)

// Variants eligible for the sweep, by the names printed in repro
// lines. Kept in a fixed order so seed-driven choices are stable.
var variants = []experiments.Variant{
	experiments.VarEager,
	experiments.VarLazy,
	experiments.VarDirUD,
	experiments.VarDirSat,
	experiments.VarDirSatFwd,
}

// VariantNames returns the sweep's variant names, in order.
func VariantNames() []string {
	names := make([]string, len(variants))
	for i, v := range variants {
		names[i] = v.Name
	}
	return names
}

// LookupVariant resolves a repro line's variant name.
func LookupVariant(name string) (experiments.Variant, error) {
	for _, v := range variants {
		if v.Name == name {
			return v, nil
		}
	}
	return experiments.Variant{}, fmt.Errorf("torture: unknown variant %q (known: %v)", name, VariantNames())
}

// defaultWorkloads are the sweep's trace generators: the contended
// workloads that stress the protocol hardest, plus the lock/barrier
// kernels whose cache-locking traffic drives the Fig. 8 race.
var defaultWorkloads = []string{
	"cq", "sps", "pc", "tatp", "tpcc", "barnes",
	"raytrace", "streamcluster", "tas", "ticket", "barrier",
}

// faultLevels are the legal fault mixes the sweep draws from
// (weighted by repetition). Illegal modes (dup/drop) never enter the
// sweep: they exist to exercise failure detection, not to pass.
var faultLevels = []faults.Config{
	{}, // no faults: the pure-timing baseline must always pass
	{JitterProb: 0.1, JitterMax: 8},
	{JitterProb: 0.5, JitterMax: 16},
	{JitterProb: 0.25, JitterMax: 12, ReorderProb: 0.05, ReorderMax: 64},
	{ReorderProb: 0.15, ReorderMax: 128},
}

// Options scales a torture sweep. The zero value is a sensible default
// sweep of 100 runs.
type Options struct {
	Runs    int // number of randomized configs (default 100)
	Workers int // concurrent simulations (default GOMAXPROCS)
	Seed    uint64

	Cores     []int    // core-count choices (default {4, 8})
	Instrs    []int    // per-core instruction-count choices (default {1000, 2500})
	Workloads []string // default: the contended set above

	// ReplayEvery re-runs every Nth config the way every other command
	// runs it — default scheduler, no cross-check, no drain — and
	// requires an identical (mode-normalized) sim.Result. The
	// primary run visits every cycle (its cross-check replays every
	// skippable tick), the replay jumps between wake-ups, so a pass is
	// both the determinism that makes repro lines trustworthy and the
	// proof that the run loop's skipping changes nothing across the
	// whole sweep matrix, fault injection included. 0 disables replay;
	// default every 5th run.
	ReplayEvery int

	MaxCycles uint64 // per-run cycle budget (default 20M)

	// Ctx cancels the sweep (nil = context.Background()): no new runs
	// start once it is done, in-flight simulations stop at the next
	// 1024-cycle poll and are journaled canceled, so a SIGINT drains
	// into a resumable checkpoint. A deadline on the context bounds
	// the whole sweep's wall-clock time.
	Ctx context.Context
	// RunTimeout is the per-run wall-clock deadline, distinct from the
	// simulated MaxCycles budget (0 = none). A timed-out run counts as
	// transient and is retried.
	RunTimeout time.Duration
	// MaxAttempts is the per-run attempt budget for transient failures
	// (timeout, panic); deterministic failures never retry. Default 1:
	// a torture sweep reports what it saw unless retries are asked for.
	MaxAttempts int
	// Journal, when set, records every run outcome (crash-safe JSONL).
	Journal *lifecycle.Journal
	// Resume, when set, skips specs the journaled sweep already
	// completed successfully; failures and canceled runs re-execute.
	Resume *lifecycle.Snapshot

	// CheckpointDir, when set, gives every run a durable mid-run
	// checkpoint lineage under this directory (one file per spec,
	// named by its content key). Runs resume from an existing valid
	// checkpoint — whether left by a killed process or by a failed
	// attempt the supervisor is retrying — and checkpoints of runs
	// that reach a terminal state are removed. CheckpointEvery is the
	// simulated-cycle cadence (0 leaves checkpoint writing off while
	// still resuming from existing files).
	CheckpointDir   string
	CheckpointEvery uint64

	// Progress, when set, receives a line per completed run. Called
	// from worker goroutines; must be safe for concurrent use.
	Progress func(msg string)
}

func (o Options) withDefaults() Options {
	if o.Runs == 0 {
		o.Runs = 100
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if len(o.Cores) == 0 {
		o.Cores = []int{4, 8}
	}
	if len(o.Instrs) == 0 {
		o.Instrs = []int{1000, 2500}
	}
	if len(o.Workloads) == 0 {
		o.Workloads = defaultWorkloads
	}
	if o.ReplayEvery == 0 {
		o.ReplayEvery = 5
	}
	if o.MaxCycles == 0 {
		o.MaxCycles = 20_000_000
	}
	if o.Ctx == nil {
		o.Ctx = context.Background()
	}
	if o.MaxAttempts == 0 {
		o.MaxAttempts = 1
	}
	return o
}

// RunSpec fully determines one torture run; its ReproLine re-runs it.
type RunSpec struct {
	Seed     uint64 // workload-trace seed
	Workload string
	Variant  string
	Cores    int
	Instrs   int
	Faults   faults.Config

	MaxCycles uint64
}

// ReproLine renders the one-line reproduction command.
func (s RunSpec) ReproLine() string {
	return fmt.Sprintf("rowtorture -seed %#x -wl %s -variant %q -cores %d -instrs %d -faults %q",
		s.Seed, s.Workload, s.Variant, s.Cores, s.Instrs, s.Faults.Spec())
}

// ContentKey hashes everything that determines the run — the spec
// (workload, variant, shape, seed, fault mix, budgets) plus the code
// revision — for use as a checkpoint validity key.
func (s RunSpec) ContentKey() string {
	return experiments.ContentKey("torture-run", s)
}

// Execute performs one run of the spec, drains it (sim.System.Quiesce)
// and returns its result. All failure modes come back as errors:
// protocol violations (*coherence.ProtocolError), deadlocks and lost
// messages (*sim.DeadlockError), budget exhaustion
// (*sim.CycleLimitError) and invariant breaks
// (*sim.CoherenceViolationError).
func Execute(spec RunSpec) (sim.Result, error) {
	return ExecuteCtx(context.Background(), spec)
}

// ExecuteCtx is Execute under cooperative cancellation: the run also
// aborts with *sim.RunCanceledError when ctx ends.
func ExecuteCtx(ctx context.Context, spec RunSpec) (sim.Result, error) {
	return ExecuteCheckpointed(ctx, spec, 0, "")
}

// ExecuteCheckpointed is ExecuteCtx as a durable attempt (see
// checkpoint.Run) with the spec's checkpoint lineage under dir: the run
// resumes from an existing valid checkpoint and, when every > 0,
// persists a new one each cadence. A checkpoint whose content key does
// not match the spec fails the run with *checkpoint.MismatchError
// rather than resuming foreign state.
func ExecuteCheckpointed(ctx context.Context, spec RunSpec, every uint64, dir string) (sim.Result, error) {
	build, err := builder(spec)
	if err != nil {
		return sim.Result{}, err
	}
	var s *sim.System // drained once the run is over
	res, err := checkpoint.Run(ctx, dir, every, spec.ContentKey(), func(ck ...sim.Option) (_ *sim.System, err error) {
		// Torture runs double as the skip cross-checker: every cycle is
		// visited, and every skip decision the run loop would make is
		// replayed and asserted a no-op.
		s, err = build(append(ck, sim.WithCrossCheck())...)
		return s, err
	}, func(_ uint64, warn error) {
		if warn != nil {
			fmt.Fprintf(os.Stderr, "torture: %s: checkpoint unusable, starting fresh: %v\n", spec.ReproLine(), warn)
		}
	})
	if err == nil {
		err = s.Quiesce()
	}
	return res, err
}

// replay re-executes spec the way every other command runs a cell: from
// the spec's own options only, under the default scheduler, so the run
// loop jumps between wake-ups instead of visiting every cycle.
func replay(ctx context.Context, spec RunSpec) (sim.Result, error) {
	build, err := builder(spec)
	if err != nil {
		return sim.Result{}, err
	}
	s, err := build()
	if err != nil {
		return sim.Result{}, err
	}
	return s.RunCtx(ctx)
}

// builder resolves spec's variant and workload and returns the
// constructor of its system: the variant's configuration under the
// spec's cycle budget, over the spec's traces, warm filter and fault
// mix, plus whatever options the caller adds.
func builder(spec RunSpec) (func(opts ...sim.Option) (*sim.System, error), error) {
	v, err := LookupVariant(spec.Variant)
	if err != nil {
		return nil, err
	}
	p, err := workload.Get(spec.Workload)
	if err != nil {
		return nil, err
	}
	return func(opts ...sim.Option) (*sim.System, error) {
		cfg := v.Config(spec.Cores)
		if spec.MaxCycles > 0 {
			cfg.MaxCycles = spec.MaxCycles
		}
		opts = append(opts, sim.WithWarmFilter(workload.WarmFilter(p)))
		if spec.Faults.Enabled() {
			opts = append(opts, sim.WithFaults(spec.Faults))
		}
		return sim.New(cfg, workload.Generate(p, spec.Cores, spec.Instrs, spec.Seed), opts...)
	}, nil
}

// ReplayMismatchError reports nondeterminism: the same spec produced
// a different outcome when re-executed.
type ReplayMismatchError struct{ Detail string }

func (e *ReplayMismatchError) Error() string {
	return "replay mismatch (nondeterministic run): " + e.Detail
}

// Failure is one failed run, classified for the summary.
type Failure struct {
	Index int // run index within the sweep
	Spec  RunSpec
	Err   error
	Kind  string // protocol | deadlock | cycle-limit | coherence | replay-mismatch | mcheck-invariant | panic | timeout | canceled | setup
}

// Classify names the failure mode of a run error.
func Classify(err error) string {
	var pe *coherence.ProtocolError
	var de *sim.DeadlockError
	var ce *sim.CycleLimitError
	var ve *sim.CoherenceViolationError
	var re *ReplayMismatchError
	var rp *lifecycle.RunPanicError
	var me *mcheck.InvariantError
	switch {
	case errors.As(err, &re):
		return "replay-mismatch"
	case errors.As(err, &me):
		return "mcheck-invariant"
	case errors.As(err, &pe):
		return "protocol"
	case errors.As(err, &de):
		return "deadlock"
	case errors.As(err, &ce):
		return "cycle-limit"
	case errors.As(err, &ve):
		return "coherence"
	case errors.As(err, &rp):
		return "panic"
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	case errors.Is(err, context.Canceled):
		return "canceled"
	default:
		return "setup"
	}
}

// Summary aggregates a sweep.
type Summary struct {
	Runs     int
	Replayed int
	// Skipped counts specs served from a resumed journal (already
	// completed successfully in the interrupted sweep).
	Skipped int
	// Canceled counts specs the sweep did not finish before its
	// context ended; a resume re-runs exactly these.
	Canceled int
	Failures []Failure
	ByKind   map[string]int
}

// OK reports a clean sweep: no failures. An interrupted sweep can be
// OK so far — check Canceled to know whether it is also complete.
func (s Summary) OK() bool { return len(s.Failures) == 0 }

// String renders the human summary, failures first.
func (s Summary) String() string {
	out := ""
	for _, f := range s.Failures {
		out += fmt.Sprintf("FAIL [%s] %s\n  %v\n", f.Kind, f.Spec.ReproLine(), f.Err)
	}
	out += fmt.Sprintf("torture: %d runs, %d replayed, %d failures", s.Runs, s.Replayed, len(s.Failures))
	if s.Skipped > 0 {
		out += fmt.Sprintf(", %d resumed from journal", s.Skipped)
	}
	if s.Canceled > 0 {
		out += fmt.Sprintf(", %d canceled (resumable)", s.Canceled)
	}
	if len(s.ByKind) > 0 {
		kinds := make([]string, 0, len(s.ByKind))
		for k := range s.ByKind {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			out += fmt.Sprintf(" %s=%d", k, s.ByKind[k])
		}
	}
	return out
}

// specs derives the sweep's run specs from the master seed. Purely
// sequential and deterministic: the same (seed, options) always
// produce the same sweep.
func specs(opt Options) []RunSpec {
	rng := xrand.New(opt.Seed)
	out := make([]RunSpec, opt.Runs)
	for i := range out {
		fl := faultLevels[rng.Intn(len(faultLevels))]
		fl.Seed = rng.Uint64()
		out[i] = RunSpec{
			Seed:      rng.Uint64() | 1, // workload.Generate treats seed 0 as unset in places
			Workload:  opt.Workloads[rng.Intn(len(opt.Workloads))],
			Variant:   variants[rng.Intn(len(variants))].Name,
			Cores:     opt.Cores[rng.Intn(len(opt.Cores))],
			Instrs:    opt.Instrs[rng.Intn(len(opt.Instrs))],
			Faults:    fl,
			MaxCycles: opt.MaxCycles,
		}
	}
	return out
}

// Torture runs the sweep under the lifecycle supervisor and returns
// the summary. Every run gets panic containment, the per-run timeout
// and classified retry from the options; outcomes stream to the
// journal when one is set, and a resume snapshot short-circuits specs
// the journaled sweep already completed.
func Torture(opt Options) Summary {
	opt = opt.withDefaults()
	all := specs(opt)
	ctx := opt.Ctx

	sup := lifecycle.New(lifecycle.Config{
		MaxAttempts: opt.MaxAttempts,
		RunTimeout:  opt.RunTimeout,
		Journal:     opt.Journal,
	})

	jobs := make([]lifecycle.Job, len(all))
	for i, spec := range all {
		jobs[i] = lifecycle.Job{Key: spec.ReproLine(), Seed: spec.Seed, Checkpoint: checkpoint.Path(opt.CheckpointDir, spec.ContentKey())}
	}
	sum := Summary{Runs: len(all), ByKind: make(map[string]int)}
	replayed := make([]bool, len(all))
	outs := sup.Sweep(ctx, opt.Resume, opt.Workers, jobs, func(c context.Context, i int) (sim.Result, error) {
		return ExecuteCheckpointed(c, all[i], opt.CheckpointEvery, opt.CheckpointDir)
	}, func(i int, out *lifecycle.Outcome, ran bool) {
		spec := all[i]
		if out.Status.Terminal() {
			// Done (ok — now or in the journal — or deterministically
			// failed): the recovery state has no future use. Canceled
			// runs keep theirs for the resumed sweep.
			checkpoint.Remove(jobs[i].Checkpoint)
		}
		if !ran {
			if out.Status == lifecycle.StatusOK {
				sum.Skipped++ // inline calls are sequential: no lock
				if opt.Progress != nil {
					opt.Progress(fmt.Sprintf("run %4d %-4s %-13s %-14s cores=%d (resumed from journal)",
						i, "skip", spec.Workload, spec.Variant, spec.Cores))
				}
			}
			return
		}
		if out.Status == lifecycle.StatusOK && opt.ReplayEvery > 0 && i%opt.ReplayEvery == 0 {
			// The replay skips the cycles the cross-checked run
			// visited: a pass proves both determinism and that the
			// skipping changes nothing on this spec (fault mix
			// included). Results are compared mode-normalized — the
			// visited-cycle count is the one field allowed to differ.
			replayed[i] = true
			res2, err2 := replay(ctx, spec)
			switch {
			case err2 != nil && lifecycle.Classify(err2) == lifecycle.ClassCanceled:
				// The sweep was interrupted mid-replay: the run is
				// fine, the determinism check just did not finish.
				replayed[i] = false
			case err2 != nil:
				out.Err = &ReplayMismatchError{Detail: fmt.Sprintf("skipping replay failed where the cross-checked run passed: %v", err2)}
			case res2.SchedNormalized() != out.Result.SchedNormalized():
				out.Err = &ReplayMismatchError{Detail: fmt.Sprintf("cross-checked run %d cycles / %d messages, skipping replay %d cycles / %d messages",
					out.Result.Cycles, out.Result.NetworkMessages, res2.Cycles, res2.NetworkMessages)}
			}
			if out.Err != nil {
				// Override the journaled ok: the latest record per
				// key wins on resume, so the mismatch re-runs.
				out.Status = lifecycle.StatusFailed
				if opt.Journal != nil {
					opt.Journal.Append(lifecycle.Record{
						Kind: "run", Key: jobs[i].Key, Seed: spec.Seed,
						Status: lifecycle.StatusFailed, Attempts: out.Attempts,
						Class: "replay-mismatch", Error: out.Err.Error(),
					})
				}
			}
		}
		if opt.Progress != nil {
			status := "ok"
			if out.Status != lifecycle.StatusOK {
				status = strings.ToUpper(string(out.Status))
			}
			opt.Progress(fmt.Sprintf("run %4d %-4s %-13s %-14s cores=%d faults=%s attempts=%d",
				i, status, spec.Workload, spec.Variant, spec.Cores, spec.Faults.Spec(), out.Attempts))
		}
	})

	for i, o := range outs {
		if replayed[i] {
			sum.Replayed++
		}
		if o.Status == lifecycle.StatusCanceled {
			sum.Canceled++
			continue
		}
		if o.Err == nil {
			continue
		}
		kind := Classify(o.Err)
		sum.ByKind[kind]++
		sum.Failures = append(sum.Failures, Failure{Index: i, Spec: all[i], Err: o.Err, Kind: kind})
	}
	return sum
}
