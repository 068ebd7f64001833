package interconnect

import (
	"sort"

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
	if len(m.events) == 0 {
		return dst
	}
	// Oldest per (src,dst) channel. A flat table over node pairs keeps
	// the scan deterministic (no map iteration).
	heads := make([]int, m.nodes*m.nodes)
	for i := range heads {
		heads[i] = -1
	}
	for i := range m.events {
		ch := m.events[i].msg.Src*m.nodes + m.events[i].msg.Dst
		if heads[ch] < 0 || m.events[i].seq < m.events[heads[ch]].seq {
			heads[ch] = i
		}
	}
	for _, idx := range heads {
		if idx < 0 {
			continue
		}
		e := &m.events[idx]
		dst = append(dst, Deliverable{Seq: e.seq, Src: e.msg.Src, Dst: e.msg.Dst})
	}
	sort.Slice(dst, func(i, j int) bool { return dst[i].Seq < dst[j].Seq })
	return dst
}

// TakeSeq removes the queued message with the given send sequence and
// returns it; ok is false when no such message is queued. The caller
// must deliver it to its destination.
func (m *Mesh) TakeSeq(seq uint64) (msg coherence.Msg, ok bool) {
	idx := -1
	for i := range m.events {
		if m.events[i].seq == seq {
			idx = i
			break
		}
	}
	if idx < 0 {
		return coherence.Msg{}, false
	}
	msg = m.events[idx].msg
	n := len(m.events) - 1
	m.events[idx] = m.events[n]
	m.events = m.events[:n]
	if idx < n {
		m.events.siftDown(idx)
		m.events.siftUp(idx)
	}
	return msg, true
}

// ForEachPending calls fn for every queued (not yet delivered) message
// in ascending send order. Checkers use it to encode the network's
// state.
func (m *Mesh) ForEachPending(fn func(seq uint64, msg coherence.Msg)) {
	idx := make([]int, len(m.events))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return m.events[idx[a]].seq < m.events[idx[b]].seq })
	for _, i := range idx {
		fn(m.events[i].seq, m.events[i].msg)
	}
}

// MeshEventSnap is one queued delivery, message copied by value.
type MeshEventSnap struct {
	At, Seq uint64
	Msg     coherence.Msg
}

// MeshSnap is a deep copy of the mesh's mutable delivery state. The
// diagnostic trace ring is excluded: it feeds error reports only and
// never protocol decisions.
type MeshSnap struct {
	Now, Seq uint64
	Events   []MeshEventSnap
	Inboxes  [][]coherence.Msg
	LastAt   []uint64

	Messages, HopsSum uint64
}

// Snapshot captures the queued events, inboxes and counters. Events
// are stored in heap-array order, so Restore rebuilds an identical
// heap by copying them back in place.
func (m *Mesh) Snapshot() MeshSnap {
	s := MeshSnap{
		Now: m.now, Seq: m.seq,
		Messages: m.messages, HopsSum: m.hopsSum,
	}
	for i := range m.events {
		s.Events = append(s.Events, MeshEventSnap{At: m.events[i].at, Seq: m.events[i].seq, Msg: m.events[i].msg})
	}
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

// Restore rewinds the mesh to a previously captured MeshSnap.
func (m *Mesh) Restore(s MeshSnap) {
	m.now, m.seq = s.Now, s.Seq
	m.messages, m.hopsSum = s.Messages, s.HopsSum
	m.events = m.events[:0]
	for i := range s.Events {
		m.events = append(m.events, event{at: s.Events[i].At, seq: s.Events[i].Seq, msg: s.Events[i].Msg})
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
