package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rowsim/internal/checkpoint"
	"rowsim/internal/experiments"
	"rowsim/internal/lifecycle"
	"rowsim/internal/sim"
)

// Config tunes a Server. The zero value (plus a Journal path) is a
// working daemon: GOMAXPROCS-bounded workers, a 256-cell queue with a
// quarter reserved per tenant, three attempts per transient failure
// and a 5s drain grace.
type Config struct {
	// Journal is the queue journal path (required). An existing file
	// is recovered; a missing one is created.
	Journal string

	// Workers bounds concurrent cell simulations (<1 = GOMAXPROCS).
	Workers int

	// MaxQueue bounds total pending cells across tenants; admissions
	// that would exceed it get HTTP 429 with Retry-After instead of
	// unbounded memory growth (<1 = 256).
	MaxQueue int
	// TenantQueue bounds one tenant's pending cells — the fair-share
	// floor that keeps a single tenant from filling the whole queue
	// (<1 = MaxQueue/4, at least MaxCellsPerSweep).
	TenantQueue int

	// RunTimeout is the per-attempt wall-clock deadline handed to the
	// supervisor (0 = none); MaxAttempts its retry budget (0 = 3).
	RunTimeout  time.Duration
	MaxAttempts int

	// DrainGrace bounds how long a SIGTERM drain waits for in-flight
	// cells before canceling them into the journal (0 = 5s). Either
	// way the queue on disk is resumable and the daemon exits cleanly.
	DrainGrace time.Duration

	// CheckpointEvery enables durable mid-cell checkpoints every N
	// simulated cycles (0 = off). A cell killed mid-run — crash, drain
	// overrun, retried panic — resumes from its newest valid checkpoint
	// instead of cycle zero, bounding recomputation to one interval.
	// Checkpoint files are content-addressed (the cell's memo key), so
	// they survive daemon restarts without a manifest.
	CheckpointEvery uint64
	// CheckpointDir is where per-cell checkpoint files live
	// (default: Journal + ".ckpt" when CheckpointEvery > 0).
	CheckpointDir string
}

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue < 1 {
		c.MaxQueue = 256
	}
	if c.TenantQueue < 1 {
		c.TenantQueue = c.MaxQueue / 4
		if c.TenantQueue < MaxCellsPerSweep {
			c.TenantQueue = MaxCellsPerSweep
		}
	}
	if c.TenantQueue > c.MaxQueue {
		c.TenantQueue = c.MaxQueue
	}
	if c.MaxAttempts < 1 {
		c.MaxAttempts = 3
	}
	if c.DrainGrace <= 0 {
		c.DrainGrace = 5 * time.Second
	}
	return c
}

// Server is the rowserve daemon: queue + memo + worker pool + HTTP
// handlers. Build one with Open, serve its Handler, and call Run.
type Server struct {
	cfg   Config
	q     *queue
	memo  experiments.Flight[memoOutcome] // by content key (keys carry the code revision)
	setup *experiments.Setup              // trace sets shared by the cells of a value
	sup   *lifecycle.Supervisor
	stats *statsBook

	// cellCtx is the parent of every sweep context. It is canceled
	// only by a drain-grace overrun — never directly by the Run
	// context, so a SIGTERM lets in-flight cells finish first.
	cellCtx    context.Context
	cellCancel context.CancelFunc

	draining atomic.Bool
	ready    atomic.Bool
}

// Open builds the server, creating or recovering the journal-backed
// queue. Recovery is strict: a journal produced by a different spec
// definition fails with *lifecycle.SpecMismatchError rather than
// silently running the wrong cells.
func Open(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Journal == "" {
		return nil, fmt.Errorf("serve: Config.Journal is required (the journal is the queue)")
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointDir = "" // a directory alone does not turn checkpointing on
	} else {
		var err error
		if cfg.CheckpointDir, err = checkpoint.OpenDir(cfg.CheckpointDir, cfg.Journal, cfg.CheckpointEvery); err != nil {
			return nil, fmt.Errorf("serve: checkpoint dir: %w", err)
		}
	}
	s := &Server{
		cfg:   cfg,
		setup: experiments.NewSetup(cfg.Workers),
		stats: newStatsBook(cfg.Workers),
	}
	s.cellCtx, s.cellCancel = context.WithCancel(context.Background())
	q, resumed, requeued, err := openQueue(s.cellCtx, cfg.Journal, cfg.CheckpointDir, &s.memo)
	if err != nil {
		s.cellCancel()
		return nil, err
	}
	s.q = q
	s.stats.add(func(b *statsBook) {
		b.cellsResumed += uint64(resumed)
		b.cellsRequeued += uint64(requeued)
	})
	s.sup = lifecycle.New(lifecycle.Config{
		MaxAttempts: cfg.MaxAttempts,
		RunTimeout:  cfg.RunTimeout,
		Journal:     nil, // the queue journals cell records itself
	})
	return s, nil
}

// Run starts the worker pool and blocks until ctx is done and the
// drain completes, then closes the journal. The shutdown contract:
// stop admitting (readyz flips 503), let in-flight cells finish for up
// to DrainGrace, cancel and journal the rest as canceled, flush, and
// return nil — the queue on disk resumes exactly where this process
// stopped.
func (s *Server) Run(ctx context.Context) error {
	s.ready.Store(true)
	var wg sync.WaitGroup
	for i := 0; i < s.cfg.Workers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			s.worker(ctx, id)
		}(i)
	}

	<-ctx.Done()
	s.draining.Store(true)
	s.ready.Store(false)

	// Give in-flight cells DrainGrace to finish, then cancel them into
	// the journal (checkpoint: their newest record is non-terminal, so
	// a restart re-runs them).
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	grace := time.NewTimer(s.cfg.DrainGrace)
	defer grace.Stop()
	select {
	case <-done:
	case <-grace.C:
		s.cellCancel()
		<-done
	}
	s.cellCancel()
	if err := s.q.close(); err != nil {
		return fmt.Errorf("serve: close journal: %w", err)
	}
	// Graceful drain is the natural compaction point: the journal is
	// quiesced and every in-flight transition is flushed. The rewrite
	// keeps only the latest record per cell (plus sweep admissions and
	// cancel markers), so a long-lived queue reloads from a file
	// proportional to its cells, not its history. Atomic: a crash mid
	// compaction leaves the original journal.
	if err := lifecycle.CompactFile(s.cfg.Journal); err != nil {
		return fmt.Errorf("serve: compact journal: %w", err)
	}
	return nil
}

// worker is one pool goroutine: pop a cell under fair share, resolve
// it through the memo (single-flight) or compute it under the
// supervisor, journal the outcome, repeat. On drain it exits after the
// cell in hand.
func (s *Server) worker(ctx context.Context, id int) {
	for {
		if ctx.Err() != nil {
			return
		}
		c := s.q.pop()
		if c == nil {
			s.stats.setWorker(id, "idle", "")
			select {
			case <-ctx.Done():
				return
			case <-s.q.wake:
			}
			continue
		}
		s.runCell(id, c)
	}
}

// memoOutcome is one finished computation: the result of a cell, or
// the deterministic failure every identical cell would reproduce.
type memoOutcome struct {
	res sim.Result
	err string // non-empty for deterministic (permanent) failures
}

// runCell resolves one popped cell to a terminal (or canceled) state.
// The memo runs each content key once: the first worker to want it
// computes it, the others wait and are served the outcome. Only an ok
// result or a deterministic failure is an outcome; a degraded or
// canceled computation leaves the key to the next worker that wants it.
func (s *Server) runCell(id int, c *cellState) {
	sw := c.sweep
	var out lifecycle.Outcome
	s.stats.setWorker(id, "waiting-memo", c.jkey)
	memo, led, err := s.memo.Get(sw.ctx, c.ckey, func() (memoOutcome, error) {
		out = s.compute(id, c)
		switch out.Status {
		case lifecycle.StatusOK:
			return memoOutcome{res: out.Result}, nil
		case lifecycle.StatusFailed:
			return memoOutcome{err: out.Err.Error()}, nil
		}
		return memoOutcome{}, out.Err
	})
	switch {
	case led:
		s.settle(id, c, out, false)
	case err != nil: // this sweep ended while another worker computed the cell
		s.settle(id, c, lifecycle.Outcome{Status: lifecycle.StatusCanceled, Err: err}, false)
	default:
		// Identical cell already computed (this process or recovered
		// from the journal): serve, don't recompute.
		s.stats.add(func(b *statsBook) { b.cellsFromCache++ })
		if memo.err != "" {
			s.settle(id, c, lifecycle.Outcome{Status: lifecycle.StatusFailed, Err: errors.New(memo.err)}, true)
		} else {
			s.settle(id, c, lifecycle.Outcome{Status: lifecycle.StatusOK, Result: memo.res}, true)
		}
	}
}

// compute simulates c under the supervisor.
func (s *Server) compute(id int, c *cellState) lifecycle.Outcome {
	sw := c.sweep
	s.stats.setWorker(id, "running", c.jkey)
	out := s.sup.Do(sw.ctx, lifecycle.Job{Key: c.jkey, Seed: sw.spec.Seed, Checkpoint: s.ckptPath(c.ckey)}, func(runCtx context.Context) (sim.Result, error) {
		// Count contained panics at the attempt level, then re-raise so
		// the supervisor classifies them exactly as before.
		defer func() {
			if r := recover(); r != nil {
				s.stats.add(func(b *statsBook) { b.panics++ })
				panic(r)
			}
		}()
		// A checkpoint left by a previous attempt or a previous daemon
		// process is resumed; a corrupt pair is a bounded loss (start
		// fresh), never a failed cell.
		return sw.spec.Run(runCtx, c.cell, s.setup, s.cfg.CheckpointDir, s.cfg.CheckpointEvery, func(_ uint64, warn error) {
			if warn == nil {
				s.stats.add(func(b *statsBook) { b.cellsCkptResumed++ })
			}
		})
	})
	s.stats.add(func(b *statsBook) {
		b.cellsExecuted++
		if out.Attempts > 1 {
			b.retries += uint64(out.Attempts - 1)
		}
	})
	return out
}

// ckptPath is a cell's checkpoint file, or "" when checkpointing is off.
func (s *Server) ckptPath(ckey string) string { return checkpoint.Path(s.cfg.CheckpointDir, ckey) }

// settle journals the outcome, updates counters and idles the worker.
func (s *Server) settle(id int, c *cellState, out lifecycle.Outcome, cached bool) {
	s.q.complete(c, out, cached)
	s.stats.add(func(b *statsBook) {
		switch out.Status {
		case lifecycle.StatusOK:
			b.okN++
		case lifecycle.StatusFailed:
			b.failedN++
		case lifecycle.StatusDegraded:
			b.degradedN++
		case lifecycle.StatusCanceled:
			b.cancN++
		}
	})
	s.stats.setWorker(id, "idle", "")
}

// admissionRetryAfter estimates when capacity frees up: queue depth
// over worker count, clamped to [1s, 120s]. Deliberately coarse — the
// point of Retry-After is to spread thundering herds, not to promise a
// slot.
func (s *Server) admissionRetryAfter(pending int) int {
	sec := pending / s.cfg.Workers
	if sec < 1 {
		sec = 1
	}
	if sec > 120 {
		sec = 120
	}
	return sec
}

// Snapshot assembles the /v1/stats document.
func (s *Server) Snapshot() Stats {
	memo := s.memo.Stats()
	setup := s.setup.Stats()
	s.q.mu.Lock()
	depth := s.q.pendingN
	tenants := make(map[string]int, len(s.q.tenantFIFO))
	for t, fifo := range s.q.tenantFIFO {
		if len(fifo) > 0 {
			tenants[t] = len(fifo)
		}
	}
	s.q.mu.Unlock()

	b := s.stats
	b.mu.Lock()
	defer b.mu.Unlock()
	st := Stats{
		UptimeSeconds:    time.Since(b.start).Seconds(),
		CodeRev:          experiments.CodeRev(),
		ModelVersion:     sim.ModelVersion,
		Journal:          s.cfg.Journal,
		Draining:         s.draining.Load(),
		QueueDepth:       depth,
		TenantDepths:     tenants,
		SweepsAccepted:   b.sweepsAccepted,
		SweepsDeduped:    b.sweepsDeduped,
		SweepsCanceled:   b.sweepsCanceled,
		RejectedLoad:     b.rejectedLoad,
		RejectedDrain:    b.rejectedDrain,
		CellsExecuted:    b.cellsExecuted,
		CellsFromCache:   b.cellsFromCache,
		SetupGenerated:   setup.Generated,
		SetupWarmed:      setup.Warmed,
		SetupReused:      setup.Reused,
		SetupEvicted:     setup.Evicted,
		CellsResumed:     b.cellsResumed,
		CellsRequeued:    b.cellsRequeued,
		CellsCkptResumed: b.cellsCkptResumed,
		OutcomeOK:        b.okN,
		OutcomeFailed:    b.failedN,
		OutcomeDegraded:  b.degradedN,
		OutcomeCanceled:  b.cancN,
		Retries:          b.retries,
		Panics:           b.panics,
		CacheHits:        memo.Hits,
		CacheMisses:      memo.Leads,
		CacheEntries:     memo.Entries,
		Workers:          append([]WorkerState(nil), b.workers...),
	}
	if total := memo.Hits + memo.Leads; total > 0 {
		st.CacheHitRate = float64(memo.Hits) / float64(total)
	}
	return st
}
