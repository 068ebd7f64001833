package sim

import (
	"fmt"
	"strings"
)

// Holder is one private cache holding a line (coherence reports).
type Holder struct {
	Core  int
	State uint8
}

// String names the core and the state's MESI letter, as rowcheck's
// reports do: "c0=M".
func (h Holder) String() string {
	letter := "?"
	if int(h.State) < len("ISEM") {
		letter = "ISEM"[h.State : h.State+1]
	}
	return fmt.Sprintf("c%d=%s", h.Core, letter)
}

// CoherenceViolationError reports a broken single-writer/multiple-
// reader invariant found by Quiesce: a line held exclusively by
// one core while valid in other caches.
type CoherenceViolationError struct {
	Line    uint64
	Holders []Holder
}

func (e *CoherenceViolationError) Error() string {
	hs := make([]string, len(e.Holders))
	for i, h := range e.Holders {
		hs[i] = h.String()
	}
	return fmt.Sprintf("coherence violation: line %#x held exclusively but valid in %d caches (%s)",
		e.Line, len(e.Holders), strings.Join(hs, " "))
}

// CycleLimitError reports a run that exhausted its cycle budget
// (Config.MaxCycles) before every core finished.
type CycleLimitError struct {
	MaxCycles uint64
	Cycle     uint64
	Dump      string // component state at abort
}

func (e *CycleLimitError) Error() string {
	s := fmt.Sprintf("sim: exceeded MaxCycles=%d at cycle %d", e.MaxCycles, e.Cycle)
	if e.Dump != "" {
		s += "\n" + e.Dump
	}
	return s
}

// RunCanceledError reports a run stopped by its context before
// completion — cooperative cancellation (SIGINT drain, a supervisor
// shutting down) or an expired wall-clock deadline. Cause is the
// context's error, so errors.Is(err, context.Canceled) and
// errors.Is(err, context.DeadlineExceeded) distinguish the two; the
// lifecycle package classifies the former as a drain (never retried)
// and the latter as a transient host-level failure (retryable).
type RunCanceledError struct {
	Cycle uint64 // simulation cycle at which the poll observed ctx.Err()
	Cause error
}

func (e *RunCanceledError) Error() string {
	return fmt.Sprintf("sim: run stopped at cycle %d: %v", e.Cycle, e.Cause)
}

// Unwrap exposes the context error for errors.Is.
func (e *RunCanceledError) Unwrap() error { return e.Cause }

// WaitEdge is one hop of the wait-for chain the deadlock diagnoser
// walks: a core, the line its oldest outstanding transaction waits on,
// the directory bank serving that line and the core the bank in turn
// is waiting on.
type WaitEdge struct {
	Core int    // waiting core
	Line uint64 // line its oldest outstanding request targets
	Bank int    // directory bank owning the line (-1 when unknown)
	// CacheDesc describes the core-side transaction (MSHR state).
	CacheDesc string
	// BankDesc describes the bank-side transaction state ("" when the
	// bank has no transaction in flight — the request or response is
	// still on the wire, or was dropped).
	BankDesc string
	// Stalled marks the next core holding the line locked with the
	// external request for it stalled (cache locking).
	Stalled bool
	// Next is the core this edge waits on, -1 when the chain ends.
	Next int
}

func (e WaitEdge) String() string {
	s := fmt.Sprintf("core %d waits on line %#x (%s)", e.Core, e.Line, e.CacheDesc)
	if e.Bank >= 0 {
		if e.BankDesc == "" {
			s += fmt.Sprintf("; bank %d: no transaction in flight (message on the wire or lost)", e.Bank)
		} else {
			s += fmt.Sprintf("; bank %d: %s", e.Bank, e.BankDesc)
		}
	}
	if e.Next >= 0 {
		s += fmt.Sprintf(" -> core %d", e.Next)
		if e.Stalled {
			s += " (holds the line locked; external request stalled)"
		}
	}
	return s
}

// DeadlockError reports the no-progress watchdog firing, with the
// wait-for chain starting at the stuck core, or Quiesce finding a bank
// still busy once every core finished (no chain then: no core waits).
// Cyclic is true when the chain closes on itself — a genuine
// cross-core deadlock — and false when it dead-ends (e.g. a message
// lost to fault injection).
type DeadlockError struct {
	Cycle  uint64
	Window uint64 // cycles without a commit before firing
	Chain  []WaitEdge
	Cyclic bool
	Dump   string
}

func (e *DeadlockError) Error() string {
	var b strings.Builder
	kind := "no progress"
	if e.Cyclic {
		kind = "deadlock cycle"
	}
	fmt.Fprintf(&b, "sim: %s: no commit for %d cycles at cycle %d", kind, e.Window, e.Cycle)
	if len(e.Chain) > 0 {
		b.WriteString("\nwait-for chain:\n")
		for _, edge := range e.Chain {
			fmt.Fprintf(&b, "  %s\n", edge)
		}
	}
	if e.Dump != "" {
		b.WriteString(e.Dump)
	}
	return b.String()
}

// diagnoseDeadlock walks the wait-for graph — core -> oldest MSHR line
// -> directory bank -> core the bank waits on -> ... — starting from
// every unfinished core, and returns the structured report. It prefers
// a chain that closes into a cycle; otherwise it keeps the longest.
func (s *System) diagnoseDeadlock() *DeadlockError {
	derr := &DeadlockError{Cycle: s.cycle, Window: watchdogWindow, Dump: s.dump()}
	var longest []WaitEdge
	for start, c := range s.cores {
		if c.Done() {
			continue
		}
		chain, cyclic := s.walkWaitChain(start)
		if cyclic {
			derr.Chain = chain
			derr.Cyclic = true
			return derr
		}
		if len(chain) > len(longest) {
			longest = chain
		}
	}
	derr.Chain = longest
	return derr
}

// walkWaitChain follows the wait-for edges from one core until the
// chain dead-ends or revisits a core (a cycle).
func (s *System) walkWaitChain(start int) (chain []WaitEdge, cyclic bool) {
	visited := make(map[int]bool)
	cur := start
	for {
		if visited[cur] {
			return chain, true
		}
		visited[cur] = true
		line, cdesc, ok := s.caches[cur].OldestMiss()
		if !ok {
			return chain, false
		}
		edge := WaitEdge{Core: cur, Line: line, Bank: -1, CacheDesc: cdesc, Next: -1}
		bankNode := s.bankOf(line)
		bank := bankNode - s.cfg.NumCores
		if bank >= 0 && bank < len(s.dirs) {
			edge.Bank = bank
			if bdesc, waitOn, ok := s.dirs[bank].WaitingOn(line); ok {
				edge.BankDesc = bdesc
				for _, w := range waitOn {
					if w >= 0 && w < len(s.caches) && w != cur {
						edge.Next = w
						edge.Stalled = s.caches[w].HasStalledExternal(line)
						break
					}
				}
			}
		}
		chain = append(chain, edge)
		if edge.Next < 0 {
			return chain, false
		}
		cur = edge.Next
	}
}
