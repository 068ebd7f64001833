package coherence

import (
	"fmt"
	"slices"

	"rowsim/internal/sram"
)

// This file is the directory's half of the snapshot/restore interface
// the model checker (internal/mcheck) drives: the checker explores the
// protocol state space by DFS, capturing every component before a
// branch and rewinding it afterwards.

// DirPending mirrors the directory's in-flight transaction context
// with exported fields.
type DirPending struct {
	Requestor int
	IsWrite   bool
}

// DirTxnSnap is the part of a directory entry an idle line leaves
// zero: the open transaction and the queued requests.
type DirTxnSnap struct {
	Blocked bool
	Pend    DirPending
	Waiting []Msg // queued requests, FIFO, copied by value
}

// DirEntrySnap is the exported view of one directory entry, the model
// checker's canonical encoding of a bank's per-line state (EntryView).
type DirEntrySnap struct {
	State   uint8
	Owner   int
	Sharers uint64
	DirTxnSnap
}

// DirBusySnap is the transaction of a DirSnap entry that is not idle;
// Index is the entry's place in the columns.
type DirBusySnap struct {
	Index int
	DirTxnSnap
}

// DirSnap is a deep copy of one bank's mutable protocol state. The
// entries are stored column-wise in ascending line order — entry i is
// Line[i], State[i], Owner[i] and Sharers[i] — because nearly every
// entry of a checkpoint is an idle line, and columns let the
// checkpoint codec write one field of every entry in one loop; Busy
// holds the transactions of the few entries that are not idle, in
// ascending Index. Slices, not a map, make encoding a snapshot a function of the
// state (an encoder walks a map in random order). Stats ride along so
// a checkpointed run restores to byte-identical counters (they never
// feed back into protocol decisions, but they do reach the final
// Result).
type DirSnap struct {
	Now     uint64
	Line    []uint64
	State   []uint8
	Owner   []int
	Sharers []uint64
	Busy    []DirBusySnap
	L3      sram.Snap
	Stats   DirStats
}

func (d *Directory) txn(e *dirEntry) DirTxnSnap {
	p := e.pend
	t := DirTxnSnap{
		Blocked: e.blocked,
		Pend:    DirPending{Requestor: int(p.requestor), IsWrite: p.isWrite},
	}
	t.Waiting = d.stalled.Values(e.queue)
	return t
}

// Snapshot captures the bank's directory entries and L3 contents. It
// returns a pointer so the snapshot is handed around by reference
// rather than bulk-copied.
func (d *Directory) Snapshot() *DirSnap {
	lines := d.LinesKnown()
	n := len(lines)
	s := &DirSnap{
		Now: d.now, Line: lines,
		State: make([]uint8, n), Owner: make([]int, n), Sharers: make([]uint64, n),
		L3: d.l3.Snapshot(), Stats: d.Stats,
	}
	for i, line := range lines {
		e := d.lines.find(line)
		s.State[i], s.Owner[i], s.Sharers[i] = uint8(e.state), int(e.owner), e.sharers
		if e.blocked || e.pend != (pending{}) || !e.queue.Empty() {
			s.Busy = append(s.Busy, DirBusySnap{Index: i, DirTxnSnap: d.txn(e)})
		}
	}
	return s
}

// maxCores is the most cores a sharer mask can name.
const maxCores = 64

// Restore rewinds the bank to a previously captured DirSnap. It panics
// on a DirSnap that no bank can have produced: columns of unequal length,
// lines not strictly ascending, an owner or requestor that is neither
// a core of a 64-core system nor -1, an ack count outside 0..64, or
// Busy records out of range or out of order.
func (d *Directory) Restore(s *DirSnap) {
	n := len(s.Line)
	if len(s.State) != n || len(s.Owner) != n || len(s.Sharers) != n {
		panic(fmt.Sprintf("coherence: restoring columns of %d lines, %d states, %d owners and %d sharer sets", n, len(s.State), len(s.Owner), len(s.Sharers)))
	}
	lines := newLineTable(n)
	for i, line := range s.Line {
		switch {
		case i > 0 && line <= s.Line[i-1]:
			panic(fmt.Sprintf("coherence: restoring line %#x after line %#x", line, s.Line[i-1]))
		case s.Owner[i] < -1 || s.Owner[i] >= maxCores:
			panic(fmt.Sprintf("coherence: restoring line %#x owned by core %d", line, s.Owner[i]))
		}
		e := lines.add(line, n-i)
		e.state, e.owner, e.sharers = dirState(s.State[i]), int8(s.Owner[i]), s.Sharers[i]
	}
	lines.base = n
	d.stalled.Reset()
	open := 0
	prev := -1
	for _, b := range s.Busy {
		p := &b.Pend
		switch {
		case b.Index <= prev || b.Index >= n:
			panic(fmt.Sprintf("coherence: restoring busy entry %d after %d, of %d", b.Index, prev, n))
		case p.Requestor < -1 || p.Requestor >= maxCores:
			panic(fmt.Sprintf("coherence: restoring line %#x with a transaction for core %d", s.Line[b.Index], p.Requestor))
		}
		prev = b.Index
		e := lines.find(s.Line[b.Index])
		e.blocked = b.Blocked
		e.pend = pending{requestor: int8(p.Requestor), isWrite: p.IsWrite}
		if b.Blocked {
			open++
		}
		for _, m := range b.Waiting {
			d.stalled.Push(&e.queue, m)
		}
	}
	d.now = s.Now
	d.Stats = s.Stats
	d.lines, d.open = lines, open
	d.l3.Restore(s.L3)
}

// EntryView returns the exported view of one line's directory entry,
// with the waiting queue copied by value; ok is false when the bank
// has never seen the line (equivalent to an unblocked dirI entry).
// The model checker encodes bank state from this view.
func (d *Directory) EntryView(line uint64) (DirEntrySnap, bool) {
	e := d.lines.find(line)
	if e == nil {
		return DirEntrySnap{Owner: -1}, false
	}
	return DirEntrySnap{State: uint8(e.state), Owner: int(e.owner), Sharers: e.sharers, DirTxnSnap: d.txn(e)}, true
}

// LinesKnown returns the line addresses the bank has entries for, in
// ascending order (deterministic iteration for checkers).
func (d *Directory) LinesKnown() []uint64 {
	out := make([]uint64, 0, d.lines.n)
	for _, c := range d.lines.chunks {
		for i := range c {
			out = append(out, c[i].line)
		}
	}
	slices.Sort(out)
	return out
}
