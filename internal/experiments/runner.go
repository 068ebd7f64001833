// Package experiments regenerates every table and figure of the
// paper's evaluation: the eager/lazy trade-off (Fig. 1), the fence
// microbenchmark (Fig. 2), the motivation statistics (Figs. 4-6), the
// RoW variant comparison (Fig. 9), the threshold sweep (Fig. 10), the
// miss-latency and accuracy analyses (Figs. 11-12), the forwarding
// study (Fig. 13) and the headline summary, plus the ablations the
// design discussion calls out (predictor size and update rule).
package experiments

import (
	"context"
	"fmt"
	"sync/atomic"

	"rowsim/internal/config"
	"rowsim/internal/lifecycle"
	"rowsim/internal/sim"
	"rowsim/internal/trace"
	"rowsim/internal/workload"
)

// DefaultSeed is the trace seed selected when Options.Seed is zero.
// Seed 0 is reserved as "use the default" — workload generation mixes
// seeds in ways that treat 0 as unset, so it is not a valid distinct
// seed of its own. Every run record journals the resolved seed, never
// the ambiguous 0, so a journaled spec is always re-runnable verbatim.
const DefaultSeed uint64 = 1

// Options scales the experiments. The zero value picks the paper's
// 32-core system at a trace length that keeps a full figure run in
// minutes.
type Options struct {
	Cores  int
	Instrs int // per-core instructions; 0 = 12000
	// Seed is the trace seed; 0 explicitly selects DefaultSeed (it is
	// NOT a distinct seed — passing 0 and 1 runs identical sweeps by
	// design, and the resolved value is what gets journaled).
	Seed      uint64
	Workloads []string // default: the 13 atomic-intensive workloads
	// Sched selects the simulation scheduler for every run. Only
	// rowperf's reference runs set it, to sim.SchedCycle (the
	// cross-check); results are identical either way (only wall time
	// and the visited-cycle bookkeeping differ).
	Sched sim.Scheduler
}

func (o Options) withDefaults() Options {
	if o.Cores == 0 {
		o.Cores = 32
	}
	if o.Instrs == 0 {
		o.Instrs = 12000
	}
	if o.Seed == 0 {
		o.Seed = DefaultSeed
	}
	if o.Workloads == nil {
		o.Workloads = workload.AtomicIntensive
	}
	return o
}

// Variant identifies one simulated configuration.
type Variant struct {
	Name      string
	Policy    config.AtomicPolicy
	Detection config.Detection
	Predictor config.PredictorKind
	Forward   bool
	// Threshold overrides the RW+Dir latency threshold; -1 keeps the
	// default 400, -2 means "infinite" (disables the Dir detector).
	Threshold int
	// PredEntries overrides the predictor table size (0 = 64).
	PredEntries int
	// AQSize overrides the Atomic Queue depth (0 = 16).
	AQSize int
}

// Baselines and the RoW variants the figures compare.
var (
	VarEager = Variant{Name: "Eager", Policy: config.PolicyEager, Threshold: -1}
	VarLazy  = Variant{Name: "Lazy", Policy: config.PolicyLazy, Threshold: -1}

	VarEagerFwd = Variant{Name: "Eager+Fwd", Policy: config.PolicyEager, Forward: true, Threshold: -1}

	VarEWUD   = rowVariant("EW_U/D", config.DetectEW, config.PredUpDown, false)
	VarEWSat  = rowVariant("EW_Sat", config.DetectEW, config.PredSaturate, false)
	VarRWUD   = rowVariant("RW_U/D", config.DetectRW, config.PredUpDown, false)
	VarRWSat  = rowVariant("RW_Sat", config.DetectRW, config.PredSaturate, false)
	VarDirUD  = rowVariant("RW+Dir_U/D", config.DetectRWDir, config.PredUpDown, false)
	VarDirSat = rowVariant("RW+Dir_Sat", config.DetectRWDir, config.PredSaturate, false)

	VarDirUDFwd  = rowVariant("RW+Dir_U/D+Fwd", config.DetectRWDir, config.PredUpDown, true)
	VarDirSatFwd = rowVariant("RW+Dir_Sat+Fwd", config.DetectRWDir, config.PredSaturate, true)
)

func rowVariant(name string, d config.Detection, p config.PredictorKind, fwd bool) Variant {
	return Variant{Name: name, Policy: config.PolicyRoW, Detection: d, Predictor: p, Forward: fwd, Threshold: -1}
}

// Config materializes the variant into a full system configuration.
// It is the one place a front end turns a policy, detector, predictor
// and forwarding choice into a config.Config.
func (v Variant) Config(cores int) *config.Config {
	cfg := config.Default()
	cfg.NumCores = cores
	cfg.Policy = v.Policy
	cfg.ForwardAtomics = v.Forward
	cfg.RoW.Detection = v.Detection
	cfg.RoW.Predictor = v.Predictor
	switch v.Threshold {
	case -1:
		// keep the default (400)
	case -2:
		cfg.RoW.LatencyThreshold = -1 // infinite
	default:
		cfg.RoW.LatencyThreshold = v.Threshold
	}
	if v.PredEntries > 0 {
		cfg.RoW.PredictorEntries = v.PredEntries
	}
	if v.AQSize > 0 {
		cfg.Core.AQSize = v.AQSize
	}
	cfg.MaxCycles = 500_000_000
	return cfg
}

func (v Variant) key() string {
	return fmt.Sprintf("%s|%d|%d|%d|%v|%d|%d|%d",
		v.Name, v.Policy, v.Detection, v.Predictor, v.Forward, v.Threshold, v.PredEntries, v.AQSize)
}

// Runner executes simulation runs and shares what they have in common,
// at two levels: a memo of results, one per cell (several figures use
// the same eager/lazy/RoW runs), and a set-up cache of trace sets (the
// runs of one workload differ in policy only, so they share one
// generated trace set and one warm image; see Setup). It is safe for
// concurrent use — parallel figure runs share one runner — and a cell
// or a trace set wanted by several callers at once is made once. Both
// are purely performance optimizations: every result is the one a
// fresh Generate + sim.New + Run would give.
type Runner struct {
	opt   Options
	ctx   context.Context       // base context for Run/MustRun (nil = Background)
	super *lifecycle.Supervisor // optional supervision of every run
	jobs  int                   // sweep worker count (see SetJobs; <1 = sequential)
	setup *Setup
	memo  Flight[sim.Result] // by cell key, never evicted
	// cycles accumulates the simulated cycles of every non-memoized
	// run (rowperf's throughput numerator).
	cycles atomic.Uint64
	// Progress, when set, receives a line per completed run. It must
	// itself be safe for concurrent use when the runner is shared.
	Progress func(msg string)
}

// cell is one simulation of a figure: a workload under a variant on
// cores cores, over the traces drawn at seed.
type cell struct {
	wl    string
	v     Variant
	cores int
	seed  uint64
}

func (c cell) key() string { return fmt.Sprintf("%s#%s#%d#%d", c.wl, c.v.key(), c.cores, c.seed) }

// grid is every cell of workloads × cores × seeds × variants, nested
// in that order.
func grid(workloads []string, cores []int, seeds []uint64, variants ...Variant) []cell {
	var cells []cell
	for _, wl := range workloads {
		for _, n := range cores {
			for _, seed := range seeds {
				for _, v := range variants {
					cells = append(cells, cell{wl, v, n, seed})
				}
			}
		}
	}
	return cells
}

// NewRunner builds a runner with the given options.
func NewRunner(opt Options) *Runner {
	return &Runner{opt: opt.withDefaults(), setup: NewSetup(1)}
}

// SetContext installs the base context every run (and therefore every
// figure) executes under, making whole figure harnesses cancellable by
// SIGINT or a sweep deadline.
func (r *Runner) SetContext(ctx context.Context) { r.ctx = ctx }

// Supervise routes every run through the supervisor: panic
// containment, per-run wall-clock deadline, classified retry, and
// journaling of each outcome with the resolved seed.
func (r *Runner) Supervise(s *lifecycle.Supervisor) { r.super = s }

func (r *Runner) baseCtx() context.Context {
	if r.ctx != nil {
		return r.ctx
	}
	return context.Background()
}

// Run simulates one workload under one variant, memoized, under the
// base context. It returns an error when the configuration is invalid
// or the run aborts (cycle budget, deadlock, protocol violation,
// cancellation).
func (r *Runner) Run(wl string, v Variant) (sim.Result, error) {
	return r.run(cell{wl, v, r.opt.Cores, r.opt.Seed})
}

// MustRun is Run for the figure harnesses, where an aborted run is a
// bug in the simulator, not an expected condition.
func (r *Runner) MustRun(wl string, v Variant) sim.Result {
	return r.must(cell{wl, v, r.opt.Cores, r.opt.Seed})
}

// run simulates c, memoized: callers wanting c at once share one
// simulation, and a failed one is not remembered.
func (r *Runner) run(c cell) (sim.Result, error) {
	res, _, err := r.memo.Get(r.baseCtx(), c.key(), func() (sim.Result, error) {
		name := fmt.Sprintf("%s under %s cores=%d seed=%d", c.wl, c.v.Name, c.cores, c.seed)
		res, err := r.do(name, c.seed, func(ctx context.Context) (sim.Result, error) {
			p, err := workload.Get(c.wl)
			if err != nil {
				return sim.Result{}, err
			}
			s, err := r.setup.System(ctx, c.v.Config(c.cores), p, c.cores, r.opt.Instrs, c.seed, sim.WithScheduler(r.opt.Sched))
			if err != nil {
				return sim.Result{}, err
			}
			return s.RunCtx(ctx)
		})
		if err == nil {
			r.cycles.Add(res.Cycles)
			if r.Progress != nil {
				r.Progress(fmt.Sprintf("ran %-14s %-16s %12d cycles", c.wl, c.v.Name, res.Cycles))
			}
		}
		return res, err
	})
	return res, err
}

// must is run with the MustRun convention.
func (r *Runner) must(c cell) sim.Result {
	res, err := r.run(c)
	if err != nil {
		panic(err)
	}
	return res
}

// do runs exec once under the base context, through the supervisor
// when there is one. name says what ran, in errors and as the
// supervisor's job key.
func (r *Runner) do(name string, seed uint64, exec func(context.Context) (sim.Result, error)) (sim.Result, error) {
	if r.super == nil {
		res, err := exec(r.baseCtx())
		if err != nil {
			return sim.Result{}, fmt.Errorf("experiments: %s: %w", name, err)
		}
		return res, nil
	}
	out := r.super.Do(r.baseCtx(), lifecycle.Job{Key: name, Seed: seed}, exec)
	if out.Status != lifecycle.StatusOK {
		return sim.Result{}, fmt.Errorf("experiments: %s [%s after %d attempt(s)]: %w", name, out.Status, out.Attempts, out.Err)
	}
	return out.Result, nil
}

// MustRunPrograms simulates explicit programs (the microbenchmark path)
// under the runner's base context and supervisor, when set, with the
// MustRun convention.
func (r *Runner) MustRunPrograms(cfg *config.Config, progs []trace.Program) sim.Result {
	res, err := r.do(fmt.Sprintf("programs(%d) seed=%d", len(progs), r.opt.Seed), r.opt.Seed, func(ctx context.Context) (sim.Result, error) {
		s, err := sim.New(cfg, progs, sim.WithScheduler(r.opt.Sched))
		if err != nil {
			return sim.Result{}, err
		}
		return s.RunCtx(ctx)
	})
	if err != nil {
		panic(err)
	}
	return res
}

// SetupStats reports what the runner's set-up cache did so far.
func (r *Runner) SetupStats() SetupStats { return r.setup.Stats() }

// SimulatedCycles returns the total simulated cycles executed by this
// runner's completed (non-memoized) runs — what rowperf divides by wall
// time.
func (r *Runner) SimulatedCycles() uint64 { return r.cycles.Load() }

// Norm returns v normalized to base (the paper normalizes execution
// times to the eager baseline).
func Norm(v, base uint64) float64 {
	if base == 0 {
		return 0
	}
	return float64(v) / float64(base)
}
