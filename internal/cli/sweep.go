package cli

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"io"
	"time"

	"rowsim/internal/checkpoint"
	"rowsim/internal/lifecycle"
)

// Sweep is the flag group and journal the journaled sweep tools share.
type Sweep struct {
	tool                                string
	journalPath, resumePath, resumeFrom string
	deadline                            time.Duration
	Timeout                             time.Duration
	Retries                             int
	CheckpointEvery                     uint64

	// Set by Open; Journal and Snap are nil without -journal or -resume,
	// which lifecycle accepts.
	Journal       *lifecycle.Journal
	Snap          *lifecycle.Snapshot
	CheckpointDir string
}

// AddSweep registers the sweep flags on fs, with retries attempts per
// run by default.
func AddSweep(fs *flag.FlagSet, tool string, retries int) *Sweep {
	s := &Sweep{tool: tool}
	fs.StringVar(&s.journalPath, "journal", "", "write a crash-safe JSONL run journal to this path")
	fs.StringVar(&s.resumePath, "resume", "", "resume an interrupted sweep from its journal (re-runs only the runs that did not complete)")
	fs.DurationVar(&s.Timeout, "timeout", 0, "per-run wall-clock deadline (0 = off); timed-out runs retry")
	fs.DurationVar(&s.deadline, "deadline", 0, "whole-sweep wall-clock deadline (0 = off)")
	fs.IntVar(&s.Retries, "retries", retries, "attempt budget per run for transient failures (timeout, panic)")
	fs.Uint64Var(&s.CheckpointEvery, "checkpoint-every", 0, "write a durable per-run checkpoint every N simulated cycles (0 = off); interrupted or retried runs resume from it")
	fs.StringVar(&s.resumeFrom, "resume-from", "", "directory holding mid-run checkpoints from a previous invocation (default: derived from the journal path when -checkpoint-every is set)")
	return s
}

// Open creates or resumes the journal over the definition flags def of
// fs (see lifecycle.OpenSweep), then the checkpoint directory: one file
// per run, named by its content key, so a resume needs no manifest.
// Commands defer Close before calling Open.
func (s *Sweep) Open(fs *flag.FlagSet, def ...string) error {
	var err error
	s.Journal, s.Snap, err = lifecycle.OpenSweep(fs, s.tool, s.journalPath, s.resumePath, def...)
	if err == nil {
		s.CheckpointDir, err = checkpoint.OpenDir(s.resumeFrom, cmp.Or(s.resumePath, s.journalPath, s.tool), s.CheckpointEvery)
	}
	return err
}

// Context is Context, also canceled once -deadline has passed.
func (s *Sweep) Context() (context.Context, context.CancelFunc) {
	ctx, stop := Context()
	if s.deadline <= 0 {
		return ctx, stop
	}
	ctx, cancel := context.WithTimeout(ctx, s.deadline)
	return ctx, func() { cancel(); stop() }
}

// Interrupted reports a canceled sweep, with the command that resumes
// it, and returns 130.
func (s *Sweep) Interrupted(stderr io.Writer) int {
	hint := ""
	if s.Journal != nil {
		hint = fmt.Sprintf(" — resume with: %s -resume %s", s.tool, s.Journal.Path())
	}
	fmt.Fprintf(stderr, "sweep interrupted%s\n", hint)
	return 130
}

// Close closes the journal. A journal error is loud, because a silent
// one makes resume lie: it fails a run that otherwise succeeded.
func (s *Sweep) Close(code *int, stderr io.Writer) {
	if err := s.Journal.Close(); err != nil {
		late(code, stderr, fmt.Errorf("journal error: %w", err))
	}
}

// List is a comma-separated flag value. String is the text as given,
// so a journal's meta record and hash hold what the command line said,
// and Set refuses bad input while flags are parsed, before any journal
// exists, as it does a bad journaled value on resume.
type List[T any] struct {
	Values []T
	text   string
	parse  func(string) ([]T, error)
}

// NewList returns a List parsed by parse, holding def.
func NewList[T any](def string, parse func(string) ([]T, error)) *List[T] {
	l := &List[T]{parse: parse}
	if err := l.Set(def); err != nil {
		panic(err) // a bad default is a bug
	}
	return l
}

func (l *List[T]) String() string { return l.text }

func (l *List[T]) Set(s string) error {
	vs, err := l.parse(s)
	if err != nil {
		return err
	}
	l.Values, l.text = vs, s
	return nil
}
