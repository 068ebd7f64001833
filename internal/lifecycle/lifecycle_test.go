package lifecycle

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"rowsim/internal/coherence"
	"rowsim/internal/sim"
)

// TestClassify pins the retry classification Classify documents:
// deterministic simulator failures are permanent,
// host-level ones transient, shutdown is its own class.
func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want Class
	}{
		{&coherence.ProtocolError{Reason: "impossible Unblock"}, ClassPermanent},
		{&sim.DeadlockError{Cycle: 1}, ClassPermanent},
		{&sim.CycleLimitError{MaxCycles: 10}, ClassPermanent},
		{&sim.CoherenceViolationError{Line: 0x40}, ClassPermanent},
		{errors.New("unknown workload"), ClassPermanent},
		{&RunPanicError{Spec: "x", Value: "boom"}, ClassTransient},
		{context.DeadlineExceeded, ClassTransient},
		{&sim.RunCanceledError{Cycle: 1024, Cause: context.DeadlineExceeded}, ClassTransient},
		{context.Canceled, ClassCanceled},
		{&sim.RunCanceledError{Cycle: 1024, Cause: context.Canceled}, ClassCanceled},
		{fmt.Errorf("wrapped: %w", &RunPanicError{Value: 1}), ClassTransient},
	}
	for _, tc := range cases {
		if got := Classify(tc.err); got != tc.want {
			t.Errorf("Classify(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

// TestPermanentFailureNeverRetried: a deterministic protocol error
// fails after exactly one attempt — retrying a deterministic replay is
// pure waste.
func TestPermanentFailureNeverRetried(t *testing.T) {
	sup := New(Config{MaxAttempts: 5})
	attempts := 0
	out := sup.Do(context.Background(), Job{Key: "det"}, func(context.Context) (sim.Result, error) {
		attempts++
		return sim.Result{}, &coherence.ProtocolError{Reason: "deterministic"}
	})
	if out.Status != StatusFailed || out.Attempts != 1 || attempts != 1 {
		t.Fatalf("want failed after exactly 1 attempt, got status=%s attempts=%d (fn ran %d times)",
			out.Status, out.Attempts, attempts)
	}
}

// TestPanicRetriedWithBackoff: an escaped panic is contained, retried
// at once, and succeeds when the fault clears.
func TestPanicRetriedWithBackoff(t *testing.T) {
	sup := New(Config{MaxAttempts: 3})
	attempts := 0
	out := sup.Do(context.Background(), Job{Key: "flaky"}, func(context.Context) (sim.Result, error) {
		attempts++
		if attempts < 3 {
			panic(fmt.Sprintf("host glitch %d", attempts))
		}
		return sim.Result{Cycles: 42}, nil
	})
	if out.Status != StatusOK || out.Attempts != 3 || out.Result.Cycles != 42 {
		t.Fatalf("want ok on third attempt, got %+v", out)
	}
}

// TestPanicContainmentCarriesContext: the converted error names the
// run spec, keeps the payload and captures a stack.
func TestPanicContainmentCarriesContext(t *testing.T) {
	sup := New(Config{MaxAttempts: 1})
	out := sup.Do(context.Background(), Job{Key: "rowtorture -seed 0x3a41 -wl cq"}, func(context.Context) (sim.Result, error) {
		panic("index out of range [17]")
	})
	if out.Status != StatusDegraded {
		t.Fatalf("want degraded, got %s", out.Status)
	}
	var rp *RunPanicError
	if !errors.As(out.Err, &rp) {
		t.Fatalf("want *RunPanicError, got %T: %v", out.Err, out.Err)
	}
	if rp.Spec != "rowtorture -seed 0x3a41 -wl cq" || rp.Value != "index out of range [17]" {
		t.Fatalf("panic context lost: %+v", rp)
	}
	if !strings.Contains(rp.Stack, "lifecycle") {
		t.Fatalf("no stack captured: %q", rp.Stack)
	}
}

// TestTransientExhaustionDegrades: a persistently transient job
// degrades after MaxAttempts instead of aborting the sweep.
func TestTransientExhaustionDegrades(t *testing.T) {
	sup := New(Config{MaxAttempts: 3})
	attempts := 0
	out := sup.Do(context.Background(), Job{Key: "always-panics"}, func(context.Context) (sim.Result, error) {
		attempts++
		panic("every time")
	})
	if out.Status != StatusDegraded || out.Attempts != 3 || attempts != 3 {
		t.Fatalf("want degraded after 3 attempts, got status=%s attempts=%d (fn ran %d)",
			out.Status, out.Attempts, attempts)
	}
}

// TestPerAttemptDeadline: RunTimeout bounds one attempt's wall-clock
// time; the timed-out attempts count as transient and the job degrades
// when every retry times out too.
func TestPerAttemptDeadline(t *testing.T) {
	sup := New(Config{MaxAttempts: 2, RunTimeout: 5 * time.Millisecond})
	out := sup.Do(context.Background(), Job{Key: "slow"}, func(ctx context.Context) (sim.Result, error) {
		<-ctx.Done() // simulate RunCtx observing the deadline at a poll
		return sim.Result{}, &sim.RunCanceledError{Cycle: 2048, Cause: ctx.Err()}
	})
	if out.Status != StatusDegraded || out.Attempts != 2 {
		t.Fatalf("want degraded after 2 timed-out attempts, got %+v", out)
	}
	if !errors.Is(out.Err, context.DeadlineExceeded) {
		t.Fatalf("final error should be the deadline: %v", out.Err)
	}
}

// TestParentCancellationDrains: when the sweep context ends mid-job,
// the job is canceled — never retried, never marked failed — so a
// resume re-runs it.
func TestParentCancellationDrains(t *testing.T) {
	sup := New(Config{MaxAttempts: 5})
	ctx, cancel := context.WithCancel(context.Background())
	attempts := 0
	out := sup.Do(ctx, Job{Key: "drained"}, func(c context.Context) (sim.Result, error) {
		attempts++
		cancel() // SIGINT arrives while the run is in flight
		return sim.Result{}, &sim.RunCanceledError{Cycle: 1024, Cause: context.Canceled}
	})
	if out.Status != StatusCanceled || attempts != 1 {
		t.Fatalf("want canceled after 1 attempt, got status=%s (fn ran %d)", out.Status, attempts)
	}
	// And a context canceled before the job starts never runs it.
	out = sup.Do(ctx, Job{Key: "never-started"}, func(context.Context) (sim.Result, error) {
		t.Fatal("attempt ran under a dead context")
		return sim.Result{}, nil
	})
	if out.Status != StatusCanceled || out.Attempts != 0 {
		t.Fatalf("want canceled with 0 attempts, got %+v", out)
	}
}
