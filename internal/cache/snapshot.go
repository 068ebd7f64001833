package cache

import (
	"sort"

	"rowsim/internal/coherence"
	"rowsim/internal/slab"
	"rowsim/internal/sram"
)

// This file is the private cache's half of the snapshot/restore and
// choice-point interface the model checker (internal/mcheck) drives.

// WaiterSnap is the exported view of one access waiting on a fill.
type WaiterSnap struct {
	Tag   uint64
	At    uint64
	Write bool
}

// MSHRSnap is the exported view of one outstanding miss.
type MSHRSnap struct {
	Line        uint64
	Write       bool
	DataArrived bool
	Grant       coherence.GrantState
	FromPrivate bool
	PendingAcks int
	SentAt      uint64
	Waiters     []WaiterSnap
}

// StalledSnap is the exported view of one external request parked
// behind a locked line.
type StalledSnap struct {
	Line    uint64
	StallAt uint64
	Msg     coherence.Msg
}

// EventSnap is the exported view of one pending pipeline event
// (lookup completion or deferred miss). Kind is evRespond or evMiss.
type EventSnap struct {
	At   uint64
	Kind uint8
	Tag  uint64
	Line uint64
	Wr   bool
	Lat  uint64
}

// ParkedSnap is the exported view of one demand miss waiting for an
// MSHR.
type ParkedSnap struct {
	Line, Tag, At uint64
	Write         bool
}

// StrideSnap is the exported view of one stride-prefetcher table entry.
type StrideSnap struct {
	PC       uint64
	LastAddr uint64
	Stride   int64
	Conf     int
}

// CacheSnap is a deep copy of the controller's mutable state. The
// MSHR and stalled tables are key-sorted so two snapshots of
// equal logical state compare equal regardless of internal table
// order (the flat tables use swap-removal, which permutes entries
// without changing behaviour). Stats ride along so a restored run
// reports byte-identical counters; every field is exported because
// checkpoints serialize the whole snapshot to disk. Events are in
// time order, same-cycle events in queue order; Parked is in queue
// order.
type CacheSnap struct {
	Now  uint64
	Work uint64

	MSHRs   []MSHRSnap
	Stalled []StalledSnap
	Parked  []ParkedSnap

	L1, L2  sram.Snap
	Events  []EventSnap
	Strides []StrideSnap
	Stats   Stats
}

// snapWaitList captures a list of the waits slab.
func (p *Private) snapWaitList(l slab.List) []WaiterSnap {
	out := make([]WaiterSnap, 0, p.waits.Len(l))
	for r := l.Front(); r != 0; r = p.waits.Next(r) {
		w := p.waits.At(r)
		out = append(out, WaiterSnap{Tag: w.tag, At: w.at, Write: w.write})
	}
	return out
}

// Snapshot captures the controller's protocol and pipeline state. It
// returns a pointer so the snapshot is built once and handed around by
// reference rather than bulk-copied.
func (p *Private) Snapshot() *CacheSnap {
	s := &CacheSnap{
		Now: p.now, Work: p.work,
		L1:    p.l1.Snapshot(),
		L2:    p.l2.Snapshot(),
		Stats: p.Stats,
	}
	s.Stats.MissHist = p.Stats.MissHist.Clone()
	for d := range uint64(slab.WheelSize) {
		for _, e := range p.events.Bucket(p.now + d) {
			s.Events = append(s.Events, EventSnap{
				At: e.at, Kind: e.kind, Tag: e.tag, Line: e.line, Wr: e.wr, Lat: e.lat,
			})
		}
	}
	for _, t := range p.strides {
		s.Strides = append(s.Strides, StrideSnap{PC: t.pc, LastAddr: t.lastAddr, Stride: t.stride, Conf: t.conf})
	}
	for i := range p.mshrs.vals {
		m := &p.mshrs.vals[i]
		s.MSHRs = append(s.MSHRs, MSHRSnap{
			Line: p.mshrs.lines[i], Write: m.write, DataArrived: m.dataArrived,
			Grant: m.grant, FromPrivate: m.fromPrivate, PendingAcks: m.pendingAcks,
			SentAt: m.sentAt, Waiters: p.snapWaitList(m.waiters),
		})
	}
	sort.Slice(s.MSHRs, func(i, j int) bool { return s.MSHRs[i].Line < s.MSHRs[j].Line })
	for i, st := range p.stalled.vals {
		s.Stalled = append(s.Stalled, StalledSnap{Line: p.stalled.lines[i], StallAt: st.stallAt, Msg: st.msg})
	}
	sort.Slice(s.Stalled, func(i, j int) bool { return s.Stalled[i].Line < s.Stalled[j].Line })
	for _, m := range p.waits.Values(p.parked) {
		s.Parked = append(s.Parked, ParkedSnap{Line: m.line, Tag: m.tag, At: m.at, Write: m.write})
	}
	return s
}

// Restore rewinds the controller to a previously captured CacheSnap.
func (p *Private) Restore(s *CacheSnap) {
	p.now, p.work = s.Now, s.Work
	p.l1.Restore(s.L1)
	p.l2.Restore(s.L2)
	p.Stats = s.Stats
	p.Stats.MissHist = s.Stats.MissHist.Clone()
	p.events.Reset()
	for _, e := range s.Events {
		p.push(event{at: e.At, kind: e.Kind, tag: e.Tag, line: e.Line, wr: e.Wr, lat: e.Lat})
	}
	for i := range p.strides {
		p.strides[i] = strideEntry{}
	}
	for i, t := range s.Strides {
		p.strides[i] = strideEntry{pc: t.PC, lastAddr: t.LastAddr, stride: t.Stride, conf: t.Conf}
	}

	p.waits.Reset()
	p.mshrs.reset()
	for _, ms := range s.MSHRs {
		m := mshr{
			write: ms.Write, dataArrived: ms.DataArrived,
			grant: ms.Grant, fromPrivate: ms.FromPrivate, pendingAcks: ms.PendingAcks,
			sentAt: ms.SentAt,
		}
		for _, w := range ms.Waiters {
			p.waits.Push(&m.waiters, access{ms.Line, waiter{tag: w.Tag, at: w.At, write: w.Write}})
		}
		p.mshrs.add(ms.Line, m)
	}
	p.stalled.reset()
	for _, st := range s.Stalled {
		p.stalled.add(st.Line, stalledExt{msg: st.Msg, stallAt: st.StallAt})
	}
	p.parked = slab.List{}
	for _, m := range s.Parked {
		p.waits.Push(&p.parked, access{m.Line, waiter{tag: m.Tag, at: m.At, write: m.Write}})
	}
}

// MSHRView returns the exported view of the line's outstanding miss;
// ok is false when none is in flight.
func (p *Private) MSHRView(line uint64) (MSHRSnap, bool) {
	m := p.mshrs.get(line)
	if m == nil {
		return MSHRSnap{}, false
	}
	return MSHRSnap{
		Line: line, Write: m.write, DataArrived: m.dataArrived,
		Grant: m.grant, FromPrivate: m.fromPrivate, PendingAcks: m.pendingAcks,
		SentAt: m.sentAt, Waiters: p.snapWaitList(m.waiters),
	}, true
}

// StalledView returns a copy of the external request stalled on the
// line; ok is false when none is parked.
func (p *Private) StalledView(line uint64) (coherence.Msg, bool) {
	s := p.stalled.get(line)
	if s == nil {
		return coherence.Msg{}, false
	}
	return s.msg, true
}

// LevelStates returns the coherence state of the line's L1 and L2
// copies separately (StateI when absent), without touching LRU state.
// The model checker's canonical encoding distinguishes placement
// because install and commit take different paths for L1- and
// L2-resident lines.
func (p *Private) LevelStates(line uint64) (l1, l2 uint8) {
	l1, l2 = StateI, StateI
	if l := p.l1.Peek(line); l != nil {
		l1 = l.Meta
	}
	if l := p.l2.Peek(line); l != nil {
		l2 = l.Meta
	}
	return l1, l2
}

// EarliestPipelineEvent reports the cycle of the earliest pending
// pipeline event (lookup completion or deferred miss); ok is false
// when the pipeline is empty. The model checker advances its clock to
// exactly this point between choice-point transitions. (The event
// scheduler's contract, which also folds in the forced-release sweep,
// is NextEventAt in private.go.)
func (p *Private) EarliestPipelineEvent() (uint64, bool) {
	d, ok := p.events.Ahead(p.now)
	return p.now + d, ok
}

// DeliverOne processes a single protocol message (choice-mode
// delivery: the checker extracts one message from the network and
// hands it over directly).
func (p *Private) DeliverOne(m coherence.Msg) { p.handle(&m) }

// DisableForcedRelease turns off the time-based forced-release sweep
// in Tick. The model checker does not model the release timeout and
// needs none: an external request stalls only on a locked line, and
// the checker can always execute the atomic holding it.
func (p *Private) DisableForcedRelease() { p.noForcedRelease = true }
