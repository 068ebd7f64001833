package coherence

import (
	"fmt"
	"slices"

	"rowsim/internal/sram"
)

// This file is the directory's half of the snapshot/restore interface
// the model checker (internal/mcheck) drives: the checker explores the
// protocol state space by DFS, capturing every component before a
// branch and rewinding it afterwards. Snapshots deep-copy retained
// messages by value — the MsgPool ownership discipline guarantees a
// retained *Msg has exactly one owner, so restoring fresh copies can
// never alias a live message.

// PoolSnap captures the MsgPool's accounting counters. The free list
// itself is not part of protocol state (its members are, by
// definition, unreferenced), so only gets/puts — which define
// Outstanding, the conserved quantity — are rewound.
type PoolSnap struct {
	Gets, Puts int64
}

// Snapshot captures the pool counters.
func (p *MsgPool) Snapshot() PoolSnap {
	if p == nil {
		return PoolSnap{}
	}
	return PoolSnap{Gets: p.gets, Puts: p.puts}
}

// Restore rewinds the accounting counters. Messages handed out since
// the snapshot die with the component states that referenced them;
// messages on the free list stay recyclable (they are zeroed and
// unreferenced, so reuse is safe in either history).
func (p *MsgPool) Restore(s PoolSnap) {
	if p == nil {
		return
	}
	p.gets = s.Gets
	p.puts = s.Puts
}

// DirPending mirrors the directory's in-flight transaction context
// with exported fields.
type DirPending struct {
	Requestor int
	IsWrite   bool
	Far       bool
	FarAcks   int
	FarData   bool
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
// entry of a checkpoint is an idle line, and columns of numbers are
// what encoding/gob encodes fastest and smallest; Busy holds the
// transactions of the few entries that are not idle, in ascending
// Index. Slices, not a map, make encoding a snapshot a function of the
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

func (e *dirEntry) txn() DirTxnSnap {
	p := e.pend
	t := DirTxnSnap{
		Blocked: e.blocked,
		Pend:    DirPending{Requestor: p.requestor, IsWrite: p.isWrite, Far: p.far, FarAcks: p.farAcks, FarData: p.farData},
	}
	for _, m := range e.waiting {
		t.Waiting = append(t.Waiting, *m)
	}
	return t
}

func (e *dirEntry) snap() DirEntrySnap {
	return DirEntrySnap{State: uint8(e.state), Owner: e.owner, Sharers: e.sharers, DirTxnSnap: e.txn()}
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
		e := d.lines[line]
		s.State[i], s.Owner[i], s.Sharers[i] = uint8(e.state), e.owner, e.sharers
		if e.blocked || e.pend != (pending{}) || len(e.waiting) > 0 {
			s.Busy = append(s.Busy, DirBusySnap{Index: i, DirTxnSnap: e.txn()})
		}
	}
	return s
}

// Restore rewinds the bank to a previously captured DirSnap. Waiting
// messages are reconstituted as fresh allocations (never drawn from
// the pool: the pool counters are restored separately and a pool Get
// here would double-count the retained population). It panics on a
// DirSnap whose columns differ in length or whose Busy records are out
// of range or out of order.
func (d *Directory) Restore(s *DirSnap) {
	n := len(s.Line)
	if len(s.State) != n || len(s.Owner) != n || len(s.Sharers) != n {
		panic(fmt.Sprintf("coherence: restoring columns of %d lines, %d states, %d owners and %d sharer sets", n, len(s.State), len(s.Owner), len(s.Sharers)))
	}
	d.now = s.Now
	d.Stats = s.Stats
	d.lines = make(map[uint64]*dirEntry, n)
	entries := make([]dirEntry, n)
	for i, line := range s.Line {
		e := &entries[i]
		e.state, e.owner, e.sharers = dirState(s.State[i]), s.Owner[i], s.Sharers[i]
		d.lines[line] = e
	}
	prev := -1
	for _, b := range s.Busy {
		if b.Index <= prev || b.Index >= n {
			panic(fmt.Sprintf("coherence: restoring busy entry %d after %d, of %d", b.Index, prev, n))
		}
		prev = b.Index
		e, p := &entries[b.Index], &b.Pend
		e.blocked = b.Blocked
		e.pend = pending{requestor: p.Requestor, isWrite: p.IsWrite, far: p.Far, farAcks: p.FarAcks, farData: p.FarData}
		for i := range b.Waiting {
			m := new(Msg)
			*m = b.Waiting[i]
			e.waiting = append(e.waiting, m)
		}
	}
	d.l3.Restore(s.L3)
}

// EntryView returns the exported view of one line's directory entry,
// with the waiting queue copied by value; ok is false when the bank
// has never seen the line (equivalent to an unblocked dirI entry).
// The model checker encodes bank state from this view.
func (d *Directory) EntryView(line uint64) (DirEntrySnap, bool) {
	e, ok := d.lines[line]
	if !ok {
		return DirEntrySnap{Owner: -1}, false
	}
	return e.snap(), true
}

// LinesKnown returns the line addresses the bank has entries for, in
// ascending order (deterministic iteration for checkers).
func (d *Directory) LinesKnown() []uint64 {
	out := make([]uint64, 0, len(d.lines))
	for line := range d.lines {
		out = append(out, line)
	}
	slices.Sort(out)
	return out
}
