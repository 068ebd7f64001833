// Package interconnect models the on-chip network connecting cores
// and L3/directory banks: a 2D mesh with dimension-order routing and
// per-hop link plus router latency, in the spirit of GARNET but at
// message (not flit) granularity.
package interconnect

import (
	"fmt"

	"rowsim/internal/coherence"
)

// event is one in-flight message with its arrival time.
type event struct {
	at  uint64
	seq uint64 // tie-breaker preserving send order
	msg coherence.Msg
}

// eventHeap is a typed binary min-heap ordered by (at, seq). It is
// hand-rolled instead of container/heap because the interface-based
// Push/Pop box every event through the heap (one allocation per send
// on the simulator's hottest path); the typed version keeps events in
// place. seq is unique, so pop order is a total order independent of
// the heap's internal layout.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	h.siftUp(len(*h) - 1)
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	*h = s[:n]
	h.siftDown(0)
	return top
}

func (h eventHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h eventHeap) siftDown(i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && h.less(l, min) {
			min = l
		}
		if r < n && h.less(r, min) {
			min = r
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

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

	now    uint64
	seq    uint64
	events eventHeap

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
// deliveries allocate nothing: heapRoom messages in flight per node
// and inboxRoom arrivals per node and cycle. They are what rowperf's
// 4- and 8-core workloads reach and most of what its 32-core ones do
// (cold canneal has 15 messages a node in flight); a run past them
// grows the heap or an inbox to its high-water mark.
const (
	heapRoom  = 8
	inboxRoom = 8
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
		events:       make(eventHeap, 0, heapRoom*nodes),
		inboxes:      make([][]coherence.Msg, nodes),
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
// interface, which moves it to the heap: kept here, only faulted runs
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
// when fault injection is active.
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
	m.seq++
	m.events.push(event{at: at, seq: m.seq, msg: *msg})
	m.messages++
	m.hopsSum += uint64(m.Hops(msg.Src, msg.Dst))
	m.record(msg, at)
}

// record remembers the send in the trace ring (arriveAt 0 = dropped).
func (m *Mesh) record(msg *coherence.Msg, arriveAt uint64) {
	if m.trace == nil {
		m.trace = make([]traceEntry, traceDepth)
	}
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
	if m.trace == nil {
		return nil
	}
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

// Tick advances the network to the given cycle, moving every message
// that has arrived into its destination inbox.
func (m *Mesh) Tick(cycle uint64) {
	m.now = cycle
	for len(m.events) > 0 && m.events[0].at <= cycle {
		e := m.events.pop()
		m.inboxes[e.msg.Dst] = append(m.inboxes[e.msg.Dst], e.msg)
	}
}

// NextEventAt returns the arrival cycle of the earliest undelivered
// message, or ^uint64(0) when nothing is in flight. Every enqueue
// clamps the arrival to at least now+1 and Tick delivers everything
// due, so after a Tick at `now` the heap head is always in the future;
// the clamp below only defends the contract against misuse.
func (m *Mesh) NextEventAt(now uint64) uint64 {
	if len(m.events) == 0 {
		return ^uint64(0)
	}
	if at := m.events[0].at; at > now {
		return at
	}
	return now + 1
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
	if len(m.events) > 0 {
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
