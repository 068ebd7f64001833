package sim

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"rowsim/internal/coherence"
	"rowsim/internal/config"
	"rowsim/internal/workload"
)

// TestRunCtxAlreadyCanceled: a canceled context aborts before the
// first cycle with a *RunCanceledError wrapping context.Canceled.
func TestRunCtxAlreadyCanceled(t *testing.T) {
	s := contendedSystem(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.RunCtx(ctx)
	var rc *RunCanceledError
	if !errors.As(err, &rc) {
		t.Fatalf("want *RunCanceledError, got %T: %v", err, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancellation cause not exposed via errors.Is: %v", err)
	}
	if s.Cycle() != 0 {
		t.Fatalf("simulated %d cycles under a canceled context", s.Cycle())
	}
}

// TestRunCtxDeadline: an expired wall-clock deadline stops the run at
// a poll boundary and is distinguishable from plain cancellation.
func TestRunCtxDeadline(t *testing.T) {
	s := contendedSystem(t, 4)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done() // deadline long expired by the first poll
	_, err := s.RunCtx(ctx)
	var rc *RunCanceledError
	if !errors.As(err, &rc) {
		t.Fatalf("want *RunCanceledError, got %T: %v", err, err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline cause not exposed via errors.Is: %v", err)
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("deadline misreported as cancellation: %v", err)
	}
}

// TestRunCtxCancelMidRun: cancellation lands within one 1024-cycle
// poll window, so SIGINT drains promptly without a per-cycle check on
// the hot path.
func TestRunCtxCancelMidRun(t *testing.T) {
	build := func() *System {
		cfg := config.Default()
		cfg.NumCores = 4
		cfg.Policy = config.PolicyEager
		s, err := New(cfg, workload.Generate(workload.MustGet("pc"), 4, 4000, 11))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// The run must outlast three poll windows, or the third poll never
	// comes and the check below proves nothing.
	if res, err := build().Run(); err != nil || res.Cycles <= 3*1024 {
		t.Fatalf("uncancelled run: %d cycles, err %v; want more than %d", res.Cycles, err, 3*1024)
	}
	ctx := &cancelAfterCalls{n: 3} // cancel at the third Err poll
	_, err := build().RunCtx(ctx)
	var rc *RunCanceledError
	if !errors.As(err, &rc) {
		t.Fatalf("want *RunCanceledError, got %T: %v", err, err)
	}
	// Err is polled once before the loop, then at cycles 1024, 2048,
	// ...: the third poll lands at cycle 2048, so the run stops there.
	if rc.Cycle != 2*1024 {
		t.Fatalf("run stopped at cycle %d, want %d (third poll)", rc.Cycle, 2*1024)
	}
}

// cancelAfterCalls is a context whose Err becomes non-nil at the nth
// call — deterministic mid-run cancellation without goroutine timing.
type cancelAfterCalls struct {
	context.Context
	mu    sync.Mutex
	calls int
	n     int
}

func (c *cancelAfterCalls) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	if c.calls >= c.n {
		return context.Canceled
	}
	return nil
}

func (c *cancelAfterCalls) Done() <-chan struct{}       { return nil }
func (c *cancelAfterCalls) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *cancelAfterCalls) Value(key any) any           { return nil }

// TestErrorSinkIsolatedAcrossSystems: two systems running concurrently
// have independent error sinks — a protocol bug seeded into one must
// fail exactly that one, and the clean system's run and result are
// unaffected.
func TestErrorSinkIsolatedAcrossSystems(t *testing.T) {
	buggy := contendedSystem(t, 4)
	clean := contendedSystem(t, 4)
	buggy.mesh.SetPerturber(&corruptFirstUnblock{})
	var wg sync.WaitGroup
	var buggyErr, cleanErr error
	var cleanRes Result
	wg.Add(2)
	go func() { defer wg.Done(); _, buggyErr = buggy.Run() }()
	go func() { defer wg.Done(); cleanRes, cleanErr = clean.Run() }()
	wg.Wait()

	var pe *coherence.ProtocolError
	if !errors.As(buggyErr, &pe) {
		t.Fatalf("buggy system: want *coherence.ProtocolError, got %T: %v", buggyErr, buggyErr)
	}
	if cleanErr != nil {
		t.Fatalf("clean system failed — sink state leaked across systems: %v", cleanErr)
	}
	if cleanRes.Committed == 0 {
		t.Fatal("clean system committed nothing")
	}
	// The clean run must match a solo reference run exactly: sharing a
	// process with a failing system cannot perturb determinism.
	ref, err := contendedSystem(t, 4).Run()
	if err != nil {
		t.Fatal(err)
	}
	if cleanRes != ref {
		t.Fatalf("clean system's result differs from the solo reference:\nconcurrent %+v\nsolo       %+v", cleanRes, ref)
	}
}
