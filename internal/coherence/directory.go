package coherence

import (
	"fmt"

	"rowsim/internal/slab"
	"rowsim/internal/sram"
	"rowsim/internal/stats"
)

// dirState is the stable directory state of a line.
type dirState uint8

const (
	dirI dirState = iota // not cached privately
	dirS                 // one or more read-only sharers
	dirM                 // exactly one owner, possibly dirty
)

// pending records the transaction context the directory is blocked on.
// Core numbers fit an int8 because the sharer mask limits a system to
// 64 cores.
type pending struct {
	requestor int8
	isWrite   bool
}

// dirEntry is the directory's view of one line. It holds no pointer
// and fits 32 bytes: a line's stalled requests are records of the
// bank's slab, which the entry names by the ends of their list.
type dirEntry struct {
	line    uint64
	sharers uint64    // bitmask over cores (NumCores <= 64)
	queue   slab.List // requests stalled behind the open transaction, FIFO
	state   dirState
	owner   int8
	blocked bool
	pend    pending
}

// DirStats aggregates directory behaviour for the experiment tables.
type DirStats struct {
	GetS        stats.Counter
	GetX        stats.Counter
	PutX        stats.Counter
	Forwards    stats.Counter // requests answered cache-to-cache
	Stalled     stats.Counter // requests queued behind a blocked line
	L3Hits      stats.Counter
	L3Misses    stats.Counter
	Invalidates stats.Counter
	StallDepth  stats.Mean // queue length observed by each stalled request
}

// Directory is one L3 bank with its slice of the directory. Lines are
// address-interleaved across banks by the system.
type Directory struct {
	nodeID int
	bank   int

	net Network
	l3  *sram.Array

	l3HitCycles int
	dramCycles  int

	lines lineTable
	// stalled holds every entry's queue. A request is queued only behind
	// a blocked line, and drain empties the queue unless it blocks the
	// line again, so the records in use are the requests that wait right
	// now, and the slab grows only past their high-water mark.
	stalled slab.Slab[Msg]
	open    int // blocked lines: transactions in flight

	sink *ErrorSink
	now  uint64

	Stats DirStats
}

// NewDirectory builds one directory bank. l3SizeBytes/l3Ways give the
// bank's data-array geometry.
func NewDirectory(nodeID, bank int, net Network, l3SizeBytes, l3Ways, lineBytes, l3HitCycles, dramCycles int) *Directory {
	return &Directory{
		nodeID:      nodeID,
		bank:        bank,
		net:         net,
		l3:          sram.New(l3SizeBytes, l3Ways, lineBytes),
		l3HitCycles: l3HitCycles,
		dramCycles:  dramCycles,
		lines:       newLineTable(0),
	}
}

// Reserve makes room for lines more lines in the bank's index and for
// requests stalled requests at once, so that neither grows before it
// holds more.
func (d *Directory) Reserve(lines, requests int) {
	d.lines.reserve(lines)
	d.stalled.Reserve(requests)
}

// SetErrorSink wires the system-wide protocol-error sink. Without one,
// violations panic (fail-fast for components driven directly by tests).
func (d *Directory) SetErrorSink(s *ErrorSink) { d.sink = s }

// SetMsgPool does nothing: messages travel by value.
//
// Deprecated: only cmd/rowperf's lock-step driver calls it; ROADMAP
// item 7 deletes it with that driver.
func (d *Directory) SetMsgPool(*MsgPool) {}

// SetCycle stamps the bank's local clock; the system calls it before
// handling the cycle's drained messages so errors carry the cycle.
func (d *Directory) SetCycle(c uint64) { d.now = c }

// fail raises a structured protocol error for this bank.
func (d *Directory) fail(m *Msg, e *dirEntry, reason string) {
	pe := &ProtocolError{
		Cycle:     d.now,
		Component: fmt.Sprintf("directory bank %d", d.bank),
		Reason:    reason,
	}
	if m != nil {
		pe.Op = m.String()
		pe.Line = m.Line
	}
	if e != nil {
		pe.State = d.describe(e)
	}
	Raise(d.sink, pe)
}

// describe renders the entry's transaction state for error reports.
func (d *Directory) describe(e *dirEntry) string {
	return fmt.Sprintf("state=%d owner=%d sharers=%#x blocked=%v pend={req=%d write=%v} waiting=%d",
		e.state, e.owner, e.sharers, e.blocked, e.pend.requestor, e.pend.isWrite, d.stalled.Len(e.queue))
}

// block opens a transaction on e's line; the requests that arrive
// while it is open queue behind it.
func (d *Directory) block(e *dirEntry, p pending) {
	if !e.blocked {
		d.open++
	}
	e.blocked, e.pend = true, p
}

// unblock closes e's transaction and serves what queued behind it.
func (d *Directory) unblock(e *dirEntry) {
	e.blocked, e.pend = false, pending{}
	d.open--
	d.drain(e)
}

// stall queues a copy of m behind e's open transaction.
func (d *Directory) stall(e *dirEntry, m *Msg) {
	d.stalled.Push(&e.queue, *m)
}

// drain serves the requests stalled behind e's line, in order, until
// one blocks the line again.
func (d *Directory) drain(e *dirEntry) {
	for !e.blocked && !e.queue.Empty() {
		next := d.stalled.Pop(&e.queue)
		d.serve(&next, e)
	}
}

// Handle processes one incoming message. The system calls it for every
// message drained from this bank's network inbox.
func (d *Directory) Handle(m Msg) {
	switch m.Type {
	case MsgGetS, MsgGetX:
		e := d.lines.get(m.Line)
		if e.blocked {
			d.Stats.Stalled.Inc()
			d.Stats.StallDepth.Observe(float64(d.stalled.Len(e.queue)))
			d.stall(e, &m)
			return
		}
		d.serve(&m, e)
	case MsgPutX:
		e := d.lines.get(m.Line)
		if e.blocked {
			// The owner is concurrently being forwarded-to; queue the
			// writeback and drop it as stale once the transaction
			// closes (the owner answers forwards even after evicting).
			d.stall(e, &m)
			return
		}
		d.handlePutX(&m, e)
	case MsgUnblock, MsgUnblockX:
		d.handleUnblock(&m)
	default:
		d.fail(&m, d.lines.find(m.Line), "unexpected message type")
	}
}

// serve starts a transaction for a GetS/GetX on an unblocked entry.
func (d *Directory) serve(m *Msg, e *dirEntry) {
	switch m.Type {
	case MsgGetS:
		d.Stats.GetS.Inc()
		d.serveGetS(m, e)
	case MsgGetX:
		d.Stats.GetX.Inc()
		d.serveGetX(m, e)
	case MsgPutX:
		d.handlePutX(m, e)
	default:
		d.fail(m, e, "cannot serve queued message type")
	}
}

// dataDelay models the bank-side access needed to source the line:
// L3 hit time, or DRAM on an L3 miss (the line is then installed).
func (d *Directory) dataDelay(line uint64) uint64 {
	if d.l3.Lookup(line, true) != nil {
		d.Stats.L3Hits.Inc()
		return uint64(d.l3HitCycles)
	}
	d.Stats.L3Misses.Inc()
	d.l3.Insert(line, 0)
	return uint64(d.l3HitCycles + d.dramCycles)
}

func (d *Directory) serveGetS(m *Msg, e *dirEntry) {
	req := m.Requestor
	switch e.state {
	case dirI:
		// Grant exclusive-clean: the common private-data fast path.
		d.net.SendAfter(Msg{
			Type: MsgData, Line: m.Line, Src: d.nodeID, Dst: req,
			Requestor: req, Grant: GrantE,
		}, d.dataDelay(m.Line))
	case dirS:
		d.net.SendAfter(Msg{
			Type: MsgData, Line: m.Line, Src: d.nodeID, Dst: req,
			Requestor: req, Grant: GrantS,
		}, d.dataDelay(m.Line))
	case dirM:
		d.Stats.Forwards.Inc()
		d.net.Send(Msg{
			Type: MsgFwdGetS, Line: m.Line, Src: d.nodeID, Dst: int(e.owner),
			Requestor: req,
		})
	}
	d.block(e, pending{requestor: int8(req)})
}

func (d *Directory) serveGetX(m *Msg, e *dirEntry) {
	req := m.Requestor
	switch e.state {
	case dirI:
		d.net.SendAfter(Msg{
			Type: MsgData, Line: m.Line, Src: d.nodeID, Dst: req,
			Requestor: req, Grant: GrantM,
		}, d.dataDelay(m.Line))
	case dirS:
		acks := 0
		for c := 0; c < 64; c++ {
			if e.sharers&(1<<uint(c)) == 0 || c == req {
				continue
			}
			acks++
			d.Stats.Invalidates.Inc()
			d.net.Send(Msg{
				Type: MsgInv, Line: m.Line, Src: d.nodeID, Dst: c,
				Requestor: req,
			})
		}
		d.net.SendAfter(Msg{
			Type: MsgData, Line: m.Line, Src: d.nodeID, Dst: req,
			Requestor: req, Grant: GrantM, AckCount: acks,
		}, d.dataDelay(m.Line))
	case dirM:
		if int(e.owner) == req {
			// The recorded owner re-requests: its copy was silently
			// evicted (clean E eviction). Re-supply from the L3.
			d.net.SendAfter(Msg{
				Type: MsgData, Line: m.Line, Src: d.nodeID, Dst: req,
				Requestor: req, Grant: GrantM,
			}, d.dataDelay(m.Line))
		} else {
			d.Stats.Forwards.Inc()
			d.net.Send(Msg{
				Type: MsgFwdGetX, Line: m.Line, Src: d.nodeID, Dst: int(e.owner),
				Requestor: req,
			})
		}
	}
	d.block(e, pending{requestor: int8(req), isWrite: true})
}

func (d *Directory) handlePutX(m *Msg, e *dirEntry) {
	d.Stats.PutX.Inc()
	if e.state == dirM && int(e.owner) == m.Src {
		e.state = dirI
		e.owner = -1
		e.sharers = 0
		d.l3.Insert(m.Line, 0)
	}
	// Otherwise stale (the line was forwarded away first): drop.
}

func (d *Directory) handleUnblock(m *Msg) {
	e := d.lines.find(m.Line)
	if e == nil || !e.blocked {
		d.fail(m, e, "Unblock for a line with no transaction in flight")
		return
	}
	if m.Src != int(e.pend.requestor) {
		d.fail(m, e, fmt.Sprintf("Unblock from core %d but pending requestor is %d", m.Src, e.pend.requestor))
		return
	}
	if m.Type == MsgUnblockX {
		e.state = dirM
		e.owner = int8(m.Src)
		e.sharers = 0
	} else {
		// Read transaction closed. A previous M owner has downgraded
		// to S; record both as sharers. An E grant is recorded as M so
		// the silent E->M upgrade stays coherent (FwdGetS/FwdGetX to
		// an E owner behave identically).
		switch {
		case e.state == dirM && e.owner >= 0:
			e.sharers = (1 << uint(e.owner)) | (1 << uint(m.Src))
			e.state = dirS
			e.owner = -1
		case m.Grant == GrantE:
			e.state = dirM
			e.owner = int8(m.Src)
			e.sharers = 0
		default:
			e.sharers |= 1 << uint(m.Src)
			e.state = dirS
		}
	}
	d.unblock(e)
}

// WarmOwned pre-installs a line as exclusively owned by a core (warm
// start: the owner's private cache must be warmed to match).
func (d *Directory) WarmOwned(line uint64, owner int) {
	e := d.lines.get(line)
	e.state = dirM
	e.owner = int8(owner)
	e.sharers = 0
	d.l3.Insert(line, 0)
}

// WarmL3 pre-installs a line in the L3 data array with no private
// copies (shared data warm start: the first requestor pays an L3 hit,
// not a DRAM access).
func (d *Directory) WarmL3(line uint64) {
	d.l3.Insert(line, 0)
}

// PendingWork reports whether the directory still has blocked lines or
// queued requests (used by the system's quiescence check). A request
// queues only behind a blocked line, so the blocked lines tell.
func (d *Directory) PendingWork() bool {
	return d.open > 0
}

// WaitingOn reports, for a line with a transaction in flight, which
// cores the bank is waiting on before the transaction can close: the
// owner whose forward is outstanding, or — when the protocol legwork
// is done and only the requestor's Unblock is pending — the requestor
// itself.
// ok is false when the line has no transaction in flight. The deadlock
// diagnoser uses this to walk the wait-for chain.
func (d *Directory) WaitingOn(line uint64) (desc string, cores []int, ok bool) {
	e := d.lines.find(line)
	if e == nil || !e.blocked {
		return "", nil, false
	}
	owner, req := int(e.owner), int(e.pend.requestor)
	switch {
	case e.state == dirM && owner >= 0 && owner != req:
		return fmt.Sprintf("forward to owner %d outstanding (requestor %d)", owner, req),
			[]int{owner}, true
	default:
		return fmt.Sprintf("awaiting Unblock from requestor %d", req),
			[]int{req}, true
	}
}

// DebugBlocked describes every blocked line (deadlock diagnostics).
// The report is line-sorted so deadlock dumps are identical run to run.
func (d *Directory) DebugBlocked() []string {
	var out []string
	for _, line := range d.LinesKnown() {
		e := d.lines.find(line)
		if !e.blocked && e.queue.Empty() {
			continue
		}
		out = append(out, fmt.Sprintf(
			"bank%d line=%#x state=%d owner=%d blocked=%v pend={req=%d write=%v} waiting=%d",
			d.bank, line, e.state, e.owner, e.blocked, e.pend.requestor, e.pend.isWrite, d.stalled.Len(e.queue)))
	}
	return out
}
