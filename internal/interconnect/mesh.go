// Package interconnect models the on-chip network connecting cores
// and L3/directory banks: a 2D mesh with dimension-order routing and
// per-hop link plus router latency, in the spirit of GARNET but at
// message (not flit) granularity. Messages in flight wait in a
// calendar (calendar.go), a timing wheel with one bucket a cycle.
package interconnect

import (
	"fmt"

	"rowsim/internal/coherence"
)

// Perturber mutates message delivery for fault injection. The mesh
// consults it on every send when installed (see faults.Injector).
type Perturber interface {
	// Perturb returns the extra source-side delays for each delivered
	// copy of m: {0} delivers normally, multiple entries duplicate the
	// message, and an empty slice drops it. The returned slice is only
	// valid until the next call.
	Perturb(m *coherence.Msg) []uint64
}

// traceDepth is how many recent messages the mesh remembers for the
// trace attached to protocol-error reports.
const traceDepth = 256

// traceEntry is one remembered send.
type traceEntry struct {
	sentAt, arriveAt uint64
	msg              coherence.Msg
}

// Mesh is a 2D mesh network. It implements coherence.Network.
type Mesh struct {
	cols, rows int
	nodes      int

	linkCycles   int
	routerCycles int
	baseCycles   int

	now uint64 // the cycle of the last Tick
	seq uint64
	cal calendar

	inboxes [][]coherence.Msg

	perturb Perturber
	// lastAt preserves per-(src,dst) FIFO delivery under fault
	// injection: jitter may stretch a channel but never lets a younger
	// message overtake an older one on the same ordered channel, which
	// is the timing contract the directory protocol assumes. Without
	// it, a delayed PutX overtaken by the same core's next request for
	// the line reads as that transaction's writeback: a false dual-M.
	lastAt []uint64

	sink *coherence.ErrorSink

	trace    []traceEntry
	traceIdx int
	traceN   int

	// stats
	messages uint64
	hopsSum  uint64
}

// Room the mesh makes at construction, so that a run's sends and
// deliveries allocate nothing: flightRoom messages in flight per node
// and inboxRoom arrivals per node and cycle. The most in flight at once
// on rowperf's workloads (seed 1) is 85 on figcells-8c's 16 nodes, 112
// on ckpt-8c's, 203 on lockspin-32c's 40, 334 on contended-32c's and
// 603 on coldmiss-32c's, 15 a node; a run past the room grows the
// calendar's slab to its high-water mark once.
const (
	flightRoom = 8
	inboxRoom  = 8
)

// NewMesh builds a mesh holding the given number of nodes with the
// given per-hop timing. Nodes are placed row-major on the smallest
// near-square grid that fits.
func NewMesh(nodes, linkCycles, routerCycles, baseCycles int) *Mesh {
	if nodes <= 0 {
		panic(fmt.Sprintf("interconnect: non-positive node count %d", nodes))
	}
	cols := 1
	for cols*cols < nodes {
		cols++
	}
	rows := (nodes + cols - 1) / cols
	m := &Mesh{
		cols:         cols,
		rows:         rows,
		nodes:        nodes,
		linkCycles:   linkCycles,
		routerCycles: routerCycles,
		baseCycles:   baseCycles,
		cal:          newCalendar(flightRoom * nodes),
		inboxes:      make([][]coherence.Msg, nodes),
		trace:        make([]traceEntry, traceDepth),
	}
	// One array holds every inbox's share; the three-index cap keeps an
	// inbox that outgrows its share off its neighbour's.
	room := make([]coherence.Msg, inboxRoom*nodes)
	for i := range m.inboxes {
		m.inboxes[i] = room[i*inboxRoom : i*inboxRoom : (i+1)*inboxRoom]
	}
	return m
}

// SetMsgPool does nothing: messages travel by value.
//
// Deprecated: only cmd/rowperf's lock-step driver calls it; ROADMAP
// item 7 deletes it with that driver.
func (m *Mesh) SetMsgPool(*coherence.MsgPool) {}

// SetPerturber installs a fault injector on the send path. Must be set
// before the first message is sent.
func (m *Mesh) SetPerturber(p Perturber) {
	m.perturb = p
	if p != nil && m.lastAt == nil {
		m.lastAt = make([]uint64, m.nodes*m.nodes)
	}
}

// SetErrorSink wires the system-wide protocol-error sink. Without one,
// violations panic (fail-fast for components driven directly by tests).
func (m *Mesh) SetErrorSink(s *coherence.ErrorSink) { m.sink = s }

// Hops returns the Manhattan distance between two nodes.
func (m *Mesh) Hops(a, b int) int {
	ax, ay := a%m.cols, a/m.cols
	bx, by := b%m.cols, b/m.cols
	dx, dy := ax-bx, ay-by
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// Latency returns the transport latency between two nodes.
func (m *Mesh) Latency(a, b int) uint64 {
	hops := m.Hops(a, b)
	return uint64(m.baseCycles + hops*(m.linkCycles+m.routerCycles))
}

// Send implements coherence.Network.
func (m *Mesh) Send(msg coherence.Msg) { m.SendAfter(msg, 0) }

// SendAfter implements coherence.Network.
func (m *Mesh) SendAfter(msg coherence.Msg, extra uint64) {
	if msg.Dst < 0 || msg.Dst >= m.nodes {
		coherence.Raise(m.sink, &coherence.ProtocolError{
			Cycle:     m.now,
			Component: "mesh",
			Line:      msg.Line,
			Op:        msg.String(),
			Reason:    fmt.Sprintf("message addressed to unknown node %d (have %d)", msg.Dst, m.nodes),
		})
		return
	}
	if m.perturb == nil {
		m.enqueue(&msg, extra, 0)
		return
	}
	m.sendPerturbed(msg, extra)
}

// sendPerturbed is SendAfter under fault injection. It is a function
// of its own because the Perturber sees the message through an
// interface, which moves it to the Go heap: kept here, only faulted runs
// pay that allocation.
func (m *Mesh) sendPerturbed(msg coherence.Msg, extra uint64) {
	delays := m.perturb.Perturb(&msg)
	if len(delays) == 0 {
		m.record(&msg, 0) // a dropped message still shows in the trace
		return
	}
	for _, d := range delays {
		m.enqueue(&msg, extra, d)
	}
}

// enqueue schedules one delivery, preserving per-channel FIFO order
// when fault injection is active. A delivery more than maxDelay cycles
// ahead is a protocol error, and the message is not sent.
func (m *Mesh) enqueue(msg *coherence.Msg, extra, faultDelay uint64) {
	at := m.now + extra + faultDelay + m.Latency(msg.Src, msg.Dst)
	if at <= m.now {
		at = m.now + 1
	}
	if m.lastAt != nil && msg.Src >= 0 && msg.Src < m.nodes {
		ch := msg.Src*m.nodes + msg.Dst
		if at < m.lastAt[ch] {
			at = m.lastAt[ch]
		}
		m.lastAt[ch] = at
	}
	if at-m.now > maxDelay {
		coherence.Raise(m.sink, &coherence.ProtocolError{
			Cycle:     m.now,
			Component: "mesh",
			Line:      msg.Line,
			Op:        msg.String(),
			Reason:    fmt.Sprintf("message delayed %d cycles, past the mesh's %d", at-m.now, maxDelay),
		})
		return
	}
	m.seq++
	m.cal.push(m.now, at, event{seq: m.seq, msg: *msg})
	m.messages++
	m.hopsSum += uint64(m.Hops(msg.Src, msg.Dst))
	m.record(msg, at)
}

// record remembers the send in the trace ring (arriveAt 0 = dropped).
func (m *Mesh) record(msg *coherence.Msg, arriveAt uint64) {
	m.trace[m.traceIdx] = traceEntry{sentAt: m.now, arriveAt: arriveAt, msg: *msg}
	m.traceIdx = (m.traceIdx + 1) % traceDepth
	if m.traceN < traceDepth {
		m.traceN++
	}
}

// RecentTrace renders the most recent sends touching the given line
// (line 0 = all lines), oldest first, up to max entries. The system
// attaches this to protocol-error reports.
func (m *Mesh) RecentTrace(line uint64, max int) []string {
	var out []string
	for i := 0; i < m.traceN; i++ {
		e := &m.trace[(m.traceIdx+traceDepth-m.traceN+i)%traceDepth]
		if line != 0 && e.msg.Line != line {
			continue
		}
		if e.arriveAt == 0 {
			out = append(out, fmt.Sprintf("cycle %d: %s DROPPED", e.sentAt, e.msg.String()))
		} else {
			out = append(out, fmt.Sprintf("cycle %d: %s arrives %d", e.sentAt, e.msg.String(), e.arriveAt))
		}
	}
	if len(out) > max {
		out = out[len(out)-max:]
	}
	return out
}

// Tick advances the network to the given cycle, which must not be
// before the last Tick's, moving every message that has arrived into
// its destination inbox in (arrival, send) order.
func (m *Mesh) Tick(cycle uint64) {
	if cycle < m.now {
		panic(fmt.Sprintf("interconnect: Tick(%d) after Tick(%d)", cycle, m.now))
	}
	for {
		at, ok := m.cal.next(m.now)
		if !ok || at > cycle {
			break
		}
		for l := m.cal.take(at); !l.Empty(); {
			e := m.cal.slab.Pop(&l)
			m.inboxes[e.msg.Dst] = append(m.inboxes[e.msg.Dst], e.msg)
		}
	}
	m.now = cycle
}

// NextEventAt returns the arrival cycle of the earliest undelivered
// message, or ^uint64(0) when nothing is in flight. Every enqueue
// clamps the arrival to at least now+1 and Tick delivers everything
// due, so after a Tick at `now` the earliest arrival is always in the
// future; the clamp below only defends the contract against misuse.
func (m *Mesh) NextEventAt(now uint64) uint64 {
	at, ok := m.cal.next(m.now)
	if !ok {
		return ^uint64(0)
	}
	return max(at, now+1)
}

// HasMail reports whether the node's inbox holds undelivered messages.
// The system's run loop uses it to skip Drain-and-handle entirely for
// idle nodes.
func (m *Mesh) HasMail(node int) bool { return len(m.inboxes[node]) > 0 }

// Drain returns the node's pending messages and empties the inbox.
// Contract: it returns nil exactly when the inbox is empty (HasMail is
// the cheap precheck); a non-nil result always holds at least one
// message. The returned slice is the node's reused drain buffer — it is
// valid only until the next Tick, which may append into the same
// backing array. Callers consume it immediately (the system handles
// every drained message within the same cycle) and must not retain the
// slice; a handler that keeps a message keeps a copy.
func (m *Mesh) Drain(node int) []coherence.Msg {
	in := m.inboxes[node]
	if len(in) == 0 {
		return nil
	}
	m.inboxes[node] = in[:0]
	return in
}

// Idle reports whether no messages are in flight or queued anywhere.
func (m *Mesh) Idle() bool {
	if m.cal.busy > 0 {
		return false
	}
	for _, in := range m.inboxes {
		if len(in) > 0 {
			return false
		}
	}
	return true
}

// Messages returns the total number of messages sent.
func (m *Mesh) Messages() uint64 { return m.messages }

// AvgHops returns the mean hop count over all messages sent.
func (m *Mesh) AvgHops() float64 {
	if m.messages == 0 {
		return 0
	}
	return float64(m.hopsSum) / float64(m.messages)
}
