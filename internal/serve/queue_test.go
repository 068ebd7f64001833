package serve

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"rowsim/internal/experiments"
	"rowsim/internal/lifecycle"
	"rowsim/internal/sim"
)

func testSpec(t *testing.T, values ...float64) SweepSpec {
	t.Helper()
	s := SweepSpec{Values: values, Policies: []string{"eager", "lazy"}, Cores: 2, Instrs: 200}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	return s
}

func mustOpenQueue(t *testing.T, path string, m *experiments.Flight[memoOutcome]) (*queue, int, int) {
	t.Helper()
	if m == nil {
		m = new(experiments.Flight[memoOutcome])
	}
	q, resumed, requeued, err := openQueue(context.Background(), path, "", m)
	if err != nil {
		t.Fatal(err)
	}
	return q, resumed, requeued
}

// TestQueueRecovery is the core journal-is-the-queue contract: admit,
// run some cells to terminal states, kill the process (close here —
// the chaostest harness does it with SIGKILL), reopen, and the queue
// state is exactly what the journal says: terminal cells kept with
// results, the rest pending again.
func TestQueueRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.jsonl")
	q, _, _ := mustOpenQueue(t, path, nil)
	spec := testSpec(t, 0.2, 0.8) // 4 cells
	sw, created, err := q.admit(context.Background(), "alice", spec)
	if err != nil || !created {
		t.Fatalf("admit: created=%v err=%v", created, err)
	}

	// Finish two cells, leave one running (crash victim), one pending.
	c0 := q.pop()
	q.complete(c0, lifecycle.Outcome{Status: lifecycle.StatusOK, Attempts: 1, Result: sim.Result{Cycles: 100}}, false)
	c1 := q.pop()
	q.complete(c1, lifecycle.Outcome{Status: lifecycle.StatusFailed, Attempts: 2, Err: errors.New("boom")}, false)
	c2 := q.pop()
	_ = c2 // journaled running, never completed: lost to the "crash"
	if err := q.close(); err != nil {
		t.Fatal(err)
	}

	m := new(experiments.Flight[memoOutcome])
	q2, resumed, requeued := mustOpenQueue(t, path, m)
	defer q2.close()
	if resumed != 2 || requeued != 2 {
		t.Fatalf("resumed=%d requeued=%d, want 2 and 2", resumed, requeued)
	}
	sw2, ok := q2.get("alice", sw.id)
	if !ok {
		t.Fatal("sweep lost across recovery")
	}
	r0 := sw2.byKey[c0.cell.Key]
	if r0.status != lifecycle.StatusOK || !r0.resumed || r0.result == nil || r0.result.Cycles != 100 {
		t.Errorf("completed cell not recovered terminal: %+v", r0)
	}
	r1 := sw2.byKey[c1.cell.Key]
	if r1.status != lifecycle.StatusFailed || r1.errMsg != "boom" {
		t.Errorf("failed cell not recovered: status=%s err=%q", r1.status, r1.errMsg)
	}
	if st := sw2.byKey[c2.cell.Key].status; st != lifecycle.StatusPending {
		t.Errorf("mid-flight cell recovered as %s, want pending (re-run)", st)
	}
	// Recovered results seed the memo: identical future cells are hits.
	if _, led, _ := m.Get(context.Background(), r0.ckey, func() (memoOutcome, error) { return memoOutcome{}, nil }); led {
		t.Error("recovered ok result did not seed the memo cache")
	}
	// No completed cell may be handed out again.
	for c := q2.pop(); c != nil; c = q2.pop() {
		if c.cell.Key == c0.cell.Key || c.cell.Key == c1.cell.Key {
			t.Errorf("terminal cell %s re-queued after recovery", c.cell.Key)
		}
	}
}

// TestQueueRecoveryTornTail: a crash mid-append leaves a torn last
// line; recovery truncates it and the queue opens (the lifecycle
// journal's torn-tail contract, exercised through the queue).
func TestQueueRecoveryTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.jsonl")
	q, _, _ := mustOpenQueue(t, path, nil)
	if _, _, err := q.admit(context.Background(), "alice", testSpec(t, 0.5)); err != nil {
		t.Fatal(err)
	}
	c := q.pop()
	q.complete(c, lifecycle.Outcome{Status: lifecycle.StatusOK, Attempts: 1}, false)
	if err := q.close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"kind":"cell","sweep":"sw-tor`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	q2, resumed, requeued := mustOpenQueue(t, path, nil)
	defer q2.close()
	if resumed != 1 || requeued != 1 {
		t.Fatalf("after torn tail: resumed=%d requeued=%d, want 1 and 1", resumed, requeued)
	}
}

// TestQueueRecoveryRejectsTamperedSpec: a journaled sweep whose spec
// body no longer hashes to its admission hash fails recovery with the
// typed error instead of silently running different cells.
func TestQueueRecoveryRejectsTamperedSpec(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.jsonl")
	jnl, err := lifecycle.Create(path, lifecycle.Record{Tool: "rowserve", Args: queueMetaArgs()})
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(t, 0.5)
	tampered := spec
	tampered.Values = []float64{0.9} // body diverges from the hash below
	jnl.Append(lifecycle.Record{
		Kind: "sweep", Sweep: "sw-evil", Tenant: "alice",
		Spec: tampered.Canonical(), SpecHash: spec.Hash(),
	})
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	_, _, _, err = openQueue(context.Background(), path, "", new(experiments.Flight[memoOutcome]))
	var sm *lifecycle.SpecMismatchError
	if !errors.As(err, &sm) {
		t.Fatalf("openQueue = %v, want *lifecycle.SpecMismatchError", err)
	}
	if sm.Field != "sw-evil" {
		t.Errorf("mismatch names field %q, want the sweep ID", sm.Field)
	}
}

// TestQueueRejectsForeignJournal: a journal written by another tool is
// refused, not misread as a queue.
func TestQueueRejectsForeignJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	jnl, err := lifecycle.Create(path, lifecycle.Record{Tool: "rowsweep", Args: map[string]string{"workload": "sps"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := openQueue(context.Background(), path, "", new(experiments.Flight[memoOutcome])); err == nil {
		t.Fatal("openQueue accepted a rowsweep journal")
	}
}

// TestQueueFairShare: tenants are drained round-robin, so a tenant
// with one queued sweep is not starved behind a bulk submitter.
func TestQueueFairShare(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.jsonl")
	q, _, _ := mustOpenQueue(t, path, nil)
	defer q.close()
	// alice floods 8 cells, then bob queues 2.
	if _, _, err := q.admit(context.Background(), "alice", testSpec(t, 0.1, 0.2, 0.3, 0.4)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := q.admit(context.Background(), "bob", testSpec(t, 0.5)); err != nil {
		t.Fatal(err)
	}
	var order []string
	for c := q.pop(); c != nil; c = q.pop() {
		order = append(order, c.sweep.tenant)
	}
	if len(order) != 10 {
		t.Fatalf("popped %d cells, want 10", len(order))
	}
	// Bob's two cells must both be served within the first four pops.
	bob := 0
	for _, tn := range order[:4] {
		if tn == "bob" {
			bob++
		}
	}
	if bob != 2 {
		t.Errorf("first four pops served bob %d times, want 2 (round-robin): %v", bob, order)
	}
}

// TestQueueIdempotentAdmit: resubmitting an identical spec returns the
// existing sweep without a second journal record.
func TestQueueIdempotentAdmit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.jsonl")
	q, _, _ := mustOpenQueue(t, path, nil)
	spec := testSpec(t, 0.5)
	sw1, created1, err := q.admit(context.Background(), "alice", spec)
	if err != nil {
		t.Fatal(err)
	}
	sw2, created2, err := q.admit(context.Background(), "alice", spec)
	if err != nil {
		t.Fatal(err)
	}
	if !created1 || created2 {
		t.Errorf("created flags = %v, %v; want true, false", created1, created2)
	}
	if sw1 != sw2 {
		t.Error("resubmission built a second sweepState")
	}
	if total, _ := q.depths("alice"); total != len(spec.Cells()) {
		t.Errorf("queue depth %d after duplicate admit, want %d", total, len(spec.Cells()))
	}
	if err := q.close(); err != nil {
		t.Fatal(err)
	}
	// One sweep record in the journal, not two.
	q2, _, requeued := mustOpenQueue(t, path, nil)
	defer q2.close()
	if got := len(q2.list("alice")); got != 1 {
		t.Errorf("recovered %d sweeps, want 1", got)
	}
	if requeued != len(spec.Cells()) {
		t.Errorf("requeued %d, want %d", requeued, len(spec.Cells()))
	}
}

// TestQueueTenantIsolation: get and list are tenant-scoped.
func TestQueueTenantIsolation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.jsonl")
	q, _, _ := mustOpenQueue(t, path, nil)
	defer q.close()
	sw, _, err := q.admit(context.Background(), "alice", testSpec(t, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := q.get("bob", sw.id); ok {
		t.Error("bob can see alice's sweep")
	}
	if got := len(q.list("bob")); got != 0 {
		t.Errorf("bob lists %d sweeps, want 0", got)
	}
	if _, ok := q.get("alice", sw.id); !ok {
		t.Error("alice cannot see her own sweep")
	}
}

// TestSweepDeadlinePropagation: a spec deadline becomes the sweep
// context's deadline (which runCell hands to every attempt).
func TestSweepDeadlinePropagation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.jsonl")
	q, _, _ := mustOpenQueue(t, path, nil)
	defer q.close()

	spec := testSpec(t, 0.5)
	spec.TimeoutMS = 60_000
	spec0 := testSpec(t, 0.6)

	sw, _, err := q.admit(context.Background(), "alice", spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sw.ctx.Deadline(); !ok {
		t.Error("sweep with timeout_ms has no context deadline")
	}
	sw0, _, err := q.admit(context.Background(), "alice", spec0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sw0.ctx.Deadline(); ok {
		t.Error("sweep without timeout_ms got a deadline")
	}

	// The sweep context chains from the server's cell context: a drain
	// cancel reaches every sweep.
	base, cancel := context.WithCancel(context.Background())
	q2, _, _ := mustOpenQueue(t, filepath.Join(t.TempDir(), "q2.jsonl"), nil)
	defer q2.close()
	swc, _, err := q2.admit(base, "alice", spec0)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	select {
	case <-swc.ctx.Done():
	default:
		t.Error("canceling the base context did not cancel the sweep context")
	}
}

// TestQueueJournalErrGatesAdmission: once the journal is broken, admit
// fails — an acceptance that cannot be persisted would be a lie.
func TestQueueJournalErrGatesAdmission(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "q.jsonl")
	q, _, _ := mustOpenQueue(t, path, nil)
	// Close the journal behind the queue's back: subsequent appends fail.
	if err := q.close(); err != nil {
		t.Fatal(err)
	}
	_, _, err := q.admit(context.Background(), "alice", testSpec(t, 0.5))
	if err == nil {
		t.Fatal("admit succeeded on a closed journal")
	}
	if q.journalErr() == nil {
		t.Error("journalErr is nil after a failed append")
	}
}
