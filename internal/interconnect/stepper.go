package interconnect

import (
	"cmp"
	"fmt"
	"slices"

	"rowsim/internal/coherence"
)

// This file is the mesh's half of the deterministic "choice point"
// interface the model checker (internal/mcheck) drives. In normal
// simulation, delivery order is fixed by the timing model: Tick moves
// every message whose arrival cycle has passed. The checker instead
// wants to explore every delivery order the protocol must tolerate, so
// it bypasses Tick entirely: it asks which queued messages are
// eligible to fire next, picks one, and extracts it with TakeSeq for
// direct hand-off to the destination (Directory.Handle /
// Private.Deliver). Messages never transit the inboxes in this mode.
//
// The eligible messages are the head of every (src,dst) channel: each
// channel delivers in send order, but channels interleave freely. This
// is what the timed mesh guarantees under fault injection (lastAt), and
// what the fault injector's legal reorderings can produce across
// channels. It also covers global send order, whose every delivery is
// some channel's head. The timed mesh without faults sits between the
// two: unequal source-side delays can reorder a channel, but only by
// bounded amounts, so the envelope covers every order the timed model
// can produce across channels.

// Deliverable identifies one queued message eligible to fire next.
type Deliverable struct {
	Seq      uint64
	Src, Dst int
}

// Deliverables appends to dst the messages eligible for out-of-band
// delivery, every channel's oldest, in ascending send (seq) order. The
// result identifies choices for TakeSeq.
func (m *Mesh) Deliverables(dst []Deliverable) []Deliverable {
	dst = dst[:0]
	if m.cal.busy == 0 {
		return dst
	}
	// Oldest per (src,dst) channel. A flat table over node pairs keeps
	// the scan deterministic (no map iteration).
	heads := make([]uint64, m.nodes*m.nodes) // seq of the channel's oldest; seqs start at 1
	m.cal.each(m.now, func(_ uint64, e *event) {
		ch := e.msg.Src*m.nodes + e.msg.Dst
		if heads[ch] == 0 || e.seq < heads[ch] {
			heads[ch] = e.seq
		}
	})
	for ch, seq := range heads {
		if seq != 0 {
			dst = append(dst, Deliverable{Seq: seq, Src: ch / m.nodes, Dst: ch % m.nodes})
		}
	}
	slices.SortFunc(dst, func(a, b Deliverable) int { return cmp.Compare(a.Seq, b.Seq) })
	return dst
}

// TakeSeq removes the queued message with the given send sequence and
// returns it; ok is false when no such message is queued. The caller
// must deliver it to its destination.
func (m *Mesh) TakeSeq(seq uint64) (msg coherence.Msg, ok bool) {
	var at uint64
	m.cal.each(m.now, func(a uint64, e *event) {
		if e.seq == seq && !ok {
			at, ok = a, true
		}
	})
	if !ok {
		return coherence.Msg{}, false
	}
	return m.cal.remove(at, seq).msg, true
}

// ForEachPending calls fn for every queued (not yet delivered) message
// in ascending send order. Checkers use it to encode the network's
// state.
func (m *Mesh) ForEachPending(fn func(seq uint64, msg coherence.Msg)) {
	var pending []event
	m.cal.each(m.now, func(_ uint64, e *event) { pending = append(pending, *e) })
	slices.SortFunc(pending, func(a, b event) int { return cmp.Compare(a.seq, b.seq) })
	for _, e := range pending {
		fn(e.seq, e.msg)
	}
}

// MeshEventSnap is one queued delivery, message copied by value.
type MeshEventSnap struct {
	At, Seq uint64
	Msg     coherence.Msg
}

// MeshSnap is a deep copy of the mesh's mutable delivery state. The
// diagnostic trace ring is excluded: it feeds error reports only and
// never protocol decisions. Its fields are those it had when the mesh
// queued messages in a binary heap and listed Events in heap-array
// order. Restore takes Events in any order, so checkpoint.Version stays
// 7 and a checkpoint written by either mesh resumes in the other.
type MeshSnap struct {
	Now, Seq uint64
	Events   []MeshEventSnap
	Inboxes  [][]coherence.Msg
	LastAt   []uint64

	Messages, HopsSum uint64
}

// Snapshot captures the queued events, in (At, Seq) order, the inboxes
// and the counters.
func (m *Mesh) Snapshot() MeshSnap {
	s := MeshSnap{
		Now: m.now, Seq: m.seq,
		Messages: m.messages, HopsSum: m.hopsSum,
	}
	m.cal.each(m.now, func(at uint64, e *event) {
		s.Events = append(s.Events, MeshEventSnap{At: at, Seq: e.seq, Msg: e.msg})
	})
	if len(m.inboxes) > 0 {
		s.Inboxes = make([][]coherence.Msg, len(m.inboxes))
		for n, in := range m.inboxes {
			s.Inboxes[n] = append(s.Inboxes[n], in...)
		}
	}
	if m.lastAt != nil {
		s.LastAt = append([]uint64(nil), m.lastAt...)
	}
	return s
}

// Restore rewinds the mesh to a previously captured MeshSnap. It takes
// the Events in any order: sorted by (At, Seq), they queue as the
// messages were sent. It panics on an event that no mesh of this size
// can have queued at Now: one due by Now or more than maxDelay after
// it, or addressed to a node it does not have.
func (m *Mesh) Restore(s MeshSnap) {
	m.now, m.seq = s.Now, s.Seq
	m.messages, m.hopsSum = s.Messages, s.HopsSum
	evs := s.Events
	byTime := func(a, b MeshEventSnap) int {
		if c := cmp.Compare(a.At, b.At); c != 0 {
			return c
		}
		return cmp.Compare(a.Seq, b.Seq)
	}
	if !slices.IsSortedFunc(evs, byTime) {
		evs = slices.Clone(evs)
		slices.SortFunc(evs, byTime)
	}
	m.cal.reset()
	for i := range evs {
		e := &evs[i]
		if e.At <= s.Now || e.At-s.Now > maxDelay || e.Msg.Dst < 0 || e.Msg.Dst >= m.nodes {
			panic(fmt.Sprintf("interconnect: snapshot at cycle %d queues %s for cycle %d", s.Now, e.Msg.String(), e.At))
		}
		m.cal.push(s.Now, e.At, event{seq: e.Seq, msg: e.Msg})
	}
	for n := range m.inboxes {
		m.inboxes[n] = m.inboxes[n][:0]
	}
	for n, in := range s.Inboxes {
		m.inboxes[n] = append(m.inboxes[n], in...)
	}
	if s.LastAt != nil {
		if m.lastAt == nil {
			m.lastAt = make([]uint64, len(s.LastAt))
		}
		copy(m.lastAt, s.LastAt)
	} else if m.lastAt != nil {
		for i := range m.lastAt {
			m.lastAt[i] = 0
		}
	}
}
