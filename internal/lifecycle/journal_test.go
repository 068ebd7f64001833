package lifecycle

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"rowsim/internal/sim"
)

func testMeta() Record {
	return Record{Tool: "test", Args: map[string]string{"n": "3"}}
}

// TestJournalRoundTrip: records appended to a journal load back with
// results intact, and the meta record is preserved.
func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	j, err := Create(path, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Result{Cycles: 12345, Committed: 99, IPC: 1.25, ContendedFrac: 0.333}
	j.Append(Record{Kind: "run", Key: "a", Seed: 7, Status: StatusOK, Attempts: 1, Result: &res})
	j.Append(Record{Kind: "run", Key: "b", Seed: 8, Status: StatusFailed, Attempts: 1, Class: "permanent", Error: "protocol error"})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	snap, _, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Meta.Tool != "test" || snap.Meta.Args["n"] != "3" {
		t.Fatalf("meta lost: %+v", snap.Meta)
	}
	rec, ok := snap.Completed("a")
	if !ok || rec.Result == nil || *rec.Result != res {
		t.Fatalf("completed run lost or result mutated: %+v", rec)
	}
	if rec.Seed != 7 {
		t.Fatalf("resolved seed not journaled: %+v", rec)
	}
	if _, ok := snap.Completed("b"); ok {
		t.Fatal("failed run reported as completed — resume would skip re-running it")
	}
	if _, ok := snap.Completed("missing"); ok {
		t.Fatal("unknown key reported as completed")
	}
}

// TestJournalCreateRefusesExisting: a journal is never silently
// overwritten — a half-finished sweep's log is the recovery story.
func TestJournalCreateRefusesExisting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	j, err := Create(path, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, err := Create(path, testMeta()); err == nil {
		t.Fatal("Create over an existing journal succeeded")
	}
}

// TestWriteAtomic: the write path Create and CompactFile share either
// replaces the file whole or leaves it as it was, and never leaves its
// temp file behind.
func TestWriteAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	if err := os.WriteFile(path, []byte("old\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	for _, tc := range []struct {
		write func(io.Writer) error
		err   error
		want  string
	}{
		{func(w io.Writer) error { io.WriteString(w, "torn"); return boom }, boom, "old\n"},
		{func(w io.Writer) error { _, err := io.WriteString(w, "new\n"); return err }, nil, "new\n"},
	} {
		if err := WriteAtomic(path, tc.write); !errors.Is(err, tc.err) {
			t.Errorf("WriteAtomic = %v, want %v", err, tc.err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != tc.want {
			t.Errorf("file holds %q (%v), want %q", got, err, tc.want)
		}
		if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
			t.Errorf("temp file left behind (stat: %v)", err)
		}
	}
}

// TestWriteAtomicFailures: a temp file that cannot be created (its
// parent is a regular file, which stops root too) and a rename onto a
// non-empty directory both fail, leave no temp file and leave what was
// at path alone.
func TestWriteAtomicFailures(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "file")
	if err := os.WriteFile(file, []byte("old\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	occupied := filepath.Join(dir, "occupied")
	if err := os.MkdirAll(filepath.Join(occupied, "entry"), 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(w io.Writer) error { _, err := io.WriteString(w, "new\n"); return err }
	if err := WriteAtomic(filepath.Join(file, "j.jsonl"), write); !errors.Is(err, syscall.ENOTDIR) {
		t.Errorf("WriteAtomic under a regular file = %v, want ENOTDIR", err)
	}
	if err := WriteAtomic(occupied, write); err == nil {
		t.Error("WriteAtomic renamed a file onto a non-empty directory")
	}
	if _, err := os.Stat(filepath.Join(occupied, "entry")); err != nil {
		t.Errorf("the directory at path was disturbed: %v", err)
	}
	if got, err := os.ReadFile(file); err != nil || string(got) != "old\n" {
		t.Errorf("the regular file holds %q (%v)", got, err)
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 2 {
		t.Errorf("failed writes left files behind: %v %v", ents, err)
	}
}

// TestJournalTornTailDropped: a crash mid-append leaves a torn final
// line; Load keeps the valid prefix and Resume truncates the tear so
// new records append cleanly.
func TestJournalTornTailDropped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	j, err := Create(path, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	j.Append(Record{Kind: "run", Key: "done", Seed: 1, Status: StatusOK, Attempts: 1, Result: &sim.Result{Cycles: 1}})
	j.Close()

	// Simulate SIGKILL mid-write: half a JSON record, no newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"kind":"run","key":"torn","sta`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, snap, err := Resume(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := snap.Completed("done"); !ok {
		t.Fatal("valid record lost with the torn tail")
	}
	if _, ok := snap.Runs["torn"]; ok {
		t.Fatal("torn record surfaced as data")
	}
	// Appending after resume lands on a clean line boundary.
	j2.Append(Record{Kind: "run", Key: "after", Seed: 2, Status: StatusOK, Attempts: 1, Result: &sim.Result{Cycles: 2}})
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	snap2, _, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := snap2.Completed("after"); !ok {
		t.Fatal("post-resume append lost")
	}
	raw, _ := os.ReadFile(path)
	if strings.Contains(string(raw), `"sta{`) || strings.Count(string(raw), "\n") != 3 {
		t.Fatalf("journal not clean after resume:\n%s", raw)
	}
}

// TestJournalLatestRecordWins: a key journaled twice (e.g. ok then
// overridden by a replay mismatch) resumes from the latest record.
func TestJournalLatestRecordWins(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	j, err := Create(path, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	j.Append(Record{Kind: "run", Key: "k", Seed: 1, Status: StatusOK, Attempts: 1, Result: &sim.Result{}})
	j.Append(Record{Kind: "run", Key: "k", Seed: 1, Status: StatusFailed, Attempts: 1, Class: "replay-mismatch", Error: "nondeterminism"})
	j.Close()
	snap, _, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := snap.Completed("k"); ok {
		t.Fatal("superseded ok record still counts as completed")
	}
}

// TestLoadRejectsNonJournal: resuming from a file that is not a
// journal fails loudly instead of running an empty sweep.
func TestLoadRejectsNonJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not-a-journal")
	if err := os.WriteFile(path, []byte("hello\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(path); err == nil {
		t.Fatal("Load accepted a non-journal file")
	}
}

// TestSupervisorJournalsOutcomes: Do writes one record per job with
// the resolved seed, terminal status and attempt count; ok records
// carry the result, failures the error and class.
func TestSupervisorJournalsOutcomes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	j, err := Create(path, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	sup := New(Config{MaxAttempts: 2, Journal: j})
	sup.Do(context.Background(), Job{Key: "good", Seed: 11}, func(context.Context) (sim.Result, error) {
		return sim.Result{Cycles: 5}, nil
	})
	sup.Do(context.Background(), Job{Key: "bad", Seed: 12}, func(context.Context) (sim.Result, error) {
		panic("twice")
	})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	snap, _, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	good, ok := snap.Completed("good")
	if !ok || good.Seed != 11 || good.Result.Cycles != 5 {
		t.Fatalf("ok outcome journaled wrong: %+v", good)
	}
	bad := snap.Runs["bad"]
	if bad.Status != StatusDegraded || bad.Attempts != 2 || bad.Class != "transient" || !strings.Contains(bad.Error, "twice") {
		t.Fatalf("degraded outcome journaled wrong: %+v", bad)
	}
}
