// Package lifecycle supervises simulation runs: every job executes
// under cooperative cancellation, an optional per-attempt wall-clock
// deadline (distinct from the simulated-cycle budget), panic
// containment, and classified retry (see Classify) — transient
// host-level failures (deadline, panic) are tried again at once,
// deterministic simulator failures (protocol error, deadlock, cycle
// limit) fail after exactly one attempt because they replay
// identically. Outcomes stream to a crash-safe append-only JSONL
// journal, so a sweep killed at run 480/500 resumes with the 480
// finished runs served from disk and only the tail re-executed;
// repeatedly failing jobs degrade (recorded with their error) instead
// of aborting the sweep.
//
// A job moves pending → running → ok, failed, degraded or canceled
// (see Status). A parent context that ends — SIGINT, or the
// whole-sweep deadline, which composes with the per-attempt one —
// cancels the jobs in flight, and a resume re-runs them.
package lifecycle

import (
	"context"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"rowsim/internal/sim"
)

// Status is the terminal state of a supervised job.
type Status string

const (
	// StatusOK: an attempt completed cleanly.
	StatusOK Status = "ok"
	// StatusFailed: a permanent (deterministic) failure; one attempt.
	StatusFailed Status = "failed"
	// StatusDegraded: transient failures persisted through every
	// retry; the sweep records the error and moves on.
	StatusDegraded Status = "degraded"
	// StatusCanceled: the supervisor shut down (SIGINT drain, sweep
	// deadline) before the job finished; a resume re-runs it.
	StatusCanceled Status = "canceled"

	// Queue-only states (rowserve). The supervisor never produces
	// them; the daemon journals them as cell state transitions so a
	// restart reconstructs the queue. Both are non-terminal: a cell
	// whose newest journaled state is pending or running re-runs.
	StatusPending Status = "pending"
	StatusRunning Status = "running"
)

// Terminal reports whether s is a final state: the job will not run
// again in this journal's lifetime (ok serves its result, failed and
// degraded keep their error). Canceled, pending and running cells are
// re-run on resume.
func (s Status) Terminal() bool {
	switch s {
	case StatusOK, StatusFailed, StatusDegraded:
		return true
	}
	return false
}

// Config tunes a Supervisor. The zero value retries transient
// failures twice (three attempts), with no per-attempt deadline and no
// journal. A retry follows its failed attempt at once: the work is a
// deterministic local simulation, and there is no shared resource a
// delay would relieve.
type Config struct {
	// MaxAttempts is the total attempt budget per job, including the
	// first (default 3). Only transient failures consume retries.
	MaxAttempts int
	// RunTimeout is the per-attempt wall-clock deadline (0 = none).
	// It bounds host time; the simulated-cycle budget is Config
	// .MaxCycles on the simulation side.
	RunTimeout time.Duration
	// Journal, when set, receives one run record per completed job.
	Journal *Journal
}

func (c Config) withDefaults() Config {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	return c
}

// Job identifies one supervised run. Key is its stable identity across
// processes (a repro line or spec string) — the journal and resume
// match on it. Seed is the resolved trace seed, journaled so a record
// is always re-runnable even when the caller used a defaulted seed.
type Job struct {
	Key  string
	Seed uint64
	// Checkpoint, when non-empty, is the path of the job's durable
	// mid-run checkpoint lineage (see internal/checkpoint). The
	// supervisor does not read or write it — the attempt function owns
	// checkpointing, and a retried attempt resumes from whatever its
	// failed predecessor persisted — but the path is journaled with the
	// outcome so operators can locate and audit recovery state.
	Checkpoint string
}

// AttemptFunc executes one attempt of a job. The context carries the
// supervisor's cancellation and, when configured, the per-attempt
// deadline; implementations pass it to sim.System.RunCtx.
type AttemptFunc func(ctx context.Context) (sim.Result, error)

// Outcome is the terminal result of a supervised job.
type Outcome struct {
	Status   Status
	Result   sim.Result // valid when Status == StatusOK
	Attempts int        // attempts actually made
	Err      error      // final error for failed/degraded/canceled
}

// Supervisor runs jobs under the policy in its Config. It is safe for
// concurrent use by multiple workers.
type Supervisor struct {
	cfg Config
}

// New builds a supervisor.
func New(cfg Config) *Supervisor {
	return &Supervisor{cfg: cfg.withDefaults()}
}

// Do runs one job to a terminal state and journals the outcome. The
// journal write never alters the outcome; its first failure is
// reported by Journal.Err.
func (s *Supervisor) Do(ctx context.Context, job Job, fn AttemptFunc) Outcome {
	out := s.run(ctx, job, fn)
	if s.cfg.Journal != nil {
		rec := Record{
			Kind:       "run",
			Key:        job.Key,
			Seed:       job.Seed,
			Status:     out.Status,
			Attempts:   out.Attempts,
			Checkpoint: job.Checkpoint,
		}
		if out.Err != nil {
			rec.Error = out.Err.Error()
			rec.Class = Classify(out.Err).String()
		}
		if out.Status == StatusOK {
			res := out.Result
			rec.Result = &res
		}
		s.cfg.Journal.Append(rec)
	}
	return out
}

// Sweep is the supervised sweep loop: it runs attempt(ctx, i) for every
// job under Do, on up to workers goroutines (<1 = GOMAXPROCS), and
// returns one outcome per job in job order, whatever order they
// finished (and were journaled) in. A job the done snapshot shows
// completed is served from its journal record and not run again. Once
// ctx ends no further job is dispatched: the undispatched come back
// canceled with nothing journaled, the in-flight ones drain through Do.
// settled, when not nil, is called once per job before Sweep returns —
// from the worker that ran it (ran true; concurrently with others), or
// inline for a job that did not run — and may amend the outcome.
func (s *Supervisor) Sweep(ctx context.Context, done *Snapshot, workers int, jobs []Job,
	attempt func(ctx context.Context, i int) (sim.Result, error), settled func(i int, out *Outcome, ran bool)) []Outcome {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	outs := make([]Outcome, len(jobs))
	settle := func(i int, out Outcome, ran bool) {
		outs[i] = out
		if settled != nil {
			settled(i, &outs[i], ran)
		}
	}
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(workers, len(jobs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				settle(i, s.Do(ctx, jobs[i], func(c context.Context) (sim.Result, error) { return attempt(c, i) }), true)
			}
		}()
	}
	for i, job := range jobs {
		if rec, ok := done.Completed(job.Key); ok {
			settle(i, rec.Outcome(), false)
			continue
		}
		if ctx.Err() == nil {
			select {
			case work <- i:
				continue
			case <-ctx.Done():
			}
		}
		settle(i, Outcome{Status: StatusCanceled, Err: ctx.Err()}, false)
	}
	close(work)
	wg.Wait()
	return outs
}

func (s *Supervisor) run(ctx context.Context, job Job, fn AttemptFunc) Outcome {
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return Outcome{Status: StatusCanceled, Attempts: attempt - 1, Err: err}
		}
		res, err := s.attempt(ctx, job, fn)
		if err == nil {
			return Outcome{Status: StatusOK, Result: res, Attempts: attempt}
		}
		// The parent context ending mid-attempt — SIGINT drain or the
		// whole-sweep deadline — is a shutdown, not a per-run failure:
		// never retried, journaled canceled so a resume re-runs it.
		if ctx.Err() != nil {
			return Outcome{Status: StatusCanceled, Attempts: attempt, Err: err}
		}
		switch Classify(err) {
		case ClassCanceled:
			return Outcome{Status: StatusCanceled, Attempts: attempt, Err: err}
		case ClassPermanent:
			return Outcome{Status: StatusFailed, Attempts: attempt, Err: err}
		default: // transient: deadline or panic
			if attempt >= s.cfg.MaxAttempts {
				return Outcome{Status: StatusDegraded, Attempts: attempt, Err: err}
			}
		}
	}
}

// attempt executes fn once with the per-attempt deadline installed and
// panics contained as *RunPanicError.
func (s *Supervisor) attempt(ctx context.Context, job Job, fn AttemptFunc) (res sim.Result, err error) {
	if s.cfg.RunTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RunTimeout)
		defer cancel()
	}
	defer func() {
		if r := recover(); r != nil {
			err = &RunPanicError{Spec: job.Key, Value: r, Stack: string(debug.Stack())}
		}
	}()
	return fn(ctx)
}
