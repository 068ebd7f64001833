package lifecycle

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"rowsim/internal/sim"
)

// TestKilledSweepResumesExactlyMissingSpecs is the end-to-end recovery
// story at the package level, through the real sweep loop
// (Supervisor.Sweep): a supervised sweep of ten specs is "killed"
// mid-journal (the file is cut mid-record, as SIGKILL during
// an append would leave it), and the resumed sweep must execute
// exactly the specs the journal does not show complete — the torn one
// included — while serving the finished ones from disk, ending with
// results identical to an uninterrupted sweep.
func TestKilledSweepResumesExactlyMissingSpecs(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.jsonl")
	jobs := make([]Job, 10)
	for i := range jobs {
		jobs[i] = Job{Key: fmt.Sprintf("spec-%02d", i), Seed: 1}
	}
	runSpec := func(key string) sim.Result {
		// A deterministic stand-in for a simulation: the result is a
		// function of the spec alone, like a seeded run.
		return sim.Result{Cycles: uint64(1000 + len(key)*7), Committed: uint64(len(key))}
	}

	// Phase 1: sweep the first 6 specs — then tear the journal mid-way
	// through the 6th record to emulate SIGKILL during the append.
	j, err := Create(path, Record{Tool: "test-sweep"})
	if err != nil {
		t.Fatal(err)
	}
	for i, out := range New(Config{Journal: j}).Sweep(context.Background(), nil, 1, jobs[:6], func(_ context.Context, i int) (sim.Result, error) {
		return runSpec(jobs[i].Key), nil
	}, nil) {
		if out.Status != StatusOK {
			t.Fatalf("setup run %s: %+v", jobs[i].Key, out)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-25); err != nil { // cut into the 6th record
		t.Fatal(err)
	}

	// Phase 2: resume. Only specs 5..9 may execute (5's record was
	// torn); 0..4 come from the journal.
	j2, snap, err := Resume(path)
	if err != nil {
		t.Fatal(err)
	}
	var executed, ran []string // one worker: attempts and hooks are sequential
	outs := New(Config{Journal: j2}).Sweep(context.Background(), snap, 1, jobs, func(_ context.Context, i int) (sim.Result, error) {
		executed = append(executed, jobs[i].Key)
		return runSpec(jobs[i].Key), nil
	}, func(i int, _ *Outcome, r bool) {
		if r {
			ran = append(ran, jobs[i].Key)
		}
	})
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}

	want := []string{"spec-05", "spec-06", "spec-07", "spec-08", "spec-09"}
	if fmt.Sprint(executed) != fmt.Sprint(want) || fmt.Sprint(ran) != fmt.Sprint(want) {
		t.Fatalf("resume executed %v and reported %v as run, want exactly the missing specs %v", executed, ran, want)
	}
	// The aggregate equals an uninterrupted sweep's, in job order.
	for i, out := range outs {
		if out.Status != StatusOK || out.Result != runSpec(jobs[i].Key) {
			t.Fatalf("resumed aggregate diverges at %s: %+v", jobs[i].Key, out)
		}
	}
	// And the healed journal now shows all ten specs complete.
	snap2, _, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, job := range jobs {
		if _, ok := snap2.Completed(job.Key); !ok {
			t.Fatalf("journal incomplete after resumed sweep: missing %s", job.Key)
		}
	}
}
