package coherence

import (
	"fmt"

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

	// Far-RMW recall context: whether a far RMW is in flight and the
	// number of invalidation acks / the data return still expected
	// before the bank can perform the operation.
	far     bool
	farAcks int8
	farData bool // waiting for the owner's data return
}

// dirEntry is the directory's view of one line. It holds no pointer
// and fits 32 bytes: a line's stalled requests live in one of the
// bank's queues, which the entry names by number.
type dirEntry struct {
	line    uint64
	sharers uint64 // bitmask over cores (NumCores <= 64)
	wait    int32  // 1 + the number of the line's queue in Directory.queues; 0 for none
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
	FarOps      stats.Counter // RMWs performed at the bank (far atomics)
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
	// queues[q] holds, FIFO, the requests stalled behind the entry whose
	// wait is q+1. An entry takes a queue when its line blocks and gives
	// it back, empty, once the line is unblocked with nothing left to
	// serve; free lists the queues given back, which keep their
	// capacity for the next transaction.
	queues [][]*Msg
	free   []int32

	pool *MsgPool
	sink *ErrorSink
	now  uint64
	hook func(*Msg) *Msg

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

// SetErrorSink wires the system-wide protocol-error sink. Without one,
// violations panic (fail-fast for components driven directly by tests).
func (d *Directory) SetErrorSink(s *ErrorSink) { d.sink = s }

// SetMsgPool wires the system-owned message free list. Every message
// the bank sends is drawn from it, and every message the bank fully
// consumes is released back; messages parked in a blocked line's
// waiting queue are released when they are eventually served. A nil
// pool (component tests) falls back to the allocator.
func (d *Directory) SetMsgPool(p *MsgPool) { d.pool = p }

// SetCycle stamps the bank's local clock; the system calls it before
// handling the cycle's drained messages so errors carry the cycle.
func (d *Directory) SetCycle(c uint64) { d.now = c }

// SetTestHook installs a message filter applied before Handle processes
// each message. Tests use it to seed protocol bugs (mutate or swallow a
// message) and verify they surface as structured ProtocolErrors. A nil
// return swallows the message.
func (d *Directory) SetTestHook(f func(*Msg) *Msg) { d.hook = f }

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
	return fmt.Sprintf("state=%d owner=%d sharers=%#x blocked=%v pend={req=%d write=%v far=%v acks=%d data=%v} waiting=%d",
		e.state, e.owner, e.sharers, e.blocked,
		e.pend.requestor, e.pend.isWrite, e.pend.far, e.pend.farAcks, e.pend.farData,
		len(d.waiting(e)))
}

// waiting returns the requests stalled behind e's line, FIFO.
func (d *Directory) waiting(e *dirEntry) []*Msg {
	if e.wait == 0 {
		return nil
	}
	return d.queues[e.wait-1]
}

// block opens a transaction on e's line, giving the entry a queue for
// the requests that arrive while it is open.
//
//rowlint:noalloc
func (d *Directory) block(e *dirEntry, p pending) {
	e.blocked, e.pend = true, p
	if e.wait != 0 {
		return
	}
	if n := len(d.free); n > 0 {
		e.wait = d.free[n-1] + 1
		d.free = d.free[:n-1]
		return
	}
	d.queues = append(d.queues, nil)
	e.wait = int32(len(d.queues))
}

// stall queues m behind e's open transaction.
//
//rowlint:noalloc
func (d *Directory) stall(e *dirEntry, m *Msg) {
	q := &d.queues[e.wait-1]
	*q = append(*q, m)
}

// drain serves the requests stalled behind e's line, in order, until
// one blocks the line again; a line left unblocked gives its queue
// back.
//
//rowlint:noalloc
func (d *Directory) drain(e *dirEntry) {
	for !e.blocked {
		q := d.queues[e.wait-1]
		if len(q) == 0 {
			d.free = append(d.free, e.wait-1)
			e.wait = 0
			return
		}
		next := q[0]
		copy(q, q[1:])
		q[len(q)-1] = nil
		d.queues[e.wait-1] = q[:len(q)-1]
		d.serve(next, e)
		d.pool.Put(next) // nothing retains a served request anymore
	}
}

// Handle processes one incoming message. The system calls it for every
// message drained from this bank's network inbox. A fully consumed
// message is released to the pool here — the single consumption point
// on the bank side; messages parked in a blocked line's waiting queue
// are released when the queue is later served.
//
//rowlint:noalloc
func (d *Directory) Handle(m *Msg) {
	if d.hook != nil {
		orig := m
		if m = d.hook(m); m == nil {
			// A swallowed message still came from the pool: release it,
			// or every hook-dropped message leaks a pool slot (caught by
			// the end-of-run conservation check).
			d.pool.Put(orig)
			return
		}
	}
	if d.handle(m) {
		d.pool.Put(m)
	}
}

// handle dispatches one message and reports whether it was fully
// consumed (false: retained in a blocked line's waiting queue).
//
//rowlint:noalloc
func (d *Directory) handle(m *Msg) bool {
	switch m.Type {
	case MsgGetS, MsgGetX:
		e := d.lines.get(m.Line)
		if e.blocked {
			d.Stats.Stalled.Inc()
			d.Stats.StallDepth.Observe(float64(len(d.waiting(e))))
			d.stall(e, m)
			return false
		}
		d.serve(m, e)
	case MsgPutX:
		e := d.lines.get(m.Line)
		if e.blocked {
			// The owner is concurrently being forwarded-to; queue the
			// writeback and drop it as stale once the transaction
			// closes (the owner answers forwards even after evicting).
			d.stall(e, m)
			return false
		}
		d.handlePutX(m, e)
	case MsgUnblock, MsgUnblockX:
		d.handleUnblock(m)
	case MsgGetFar:
		e := d.lines.get(m.Line)
		if e.blocked {
			d.Stats.Stalled.Inc()
			d.Stats.StallDepth.Observe(float64(len(d.waiting(e))))
			d.stall(e, m)
			return false
		}
		d.serveGetFar(m, e)
	case MsgInvAck:
		d.farAck(m)
	case MsgData:
		d.farData(m)
	default:
		d.fail(m, d.lines.find(m.Line), "unexpected message type") //rowlint:ignore noalloc fatal protocol-error path; the run is already over
	}
	return true
}

// serve starts a transaction for a GetS/GetX on an unblocked entry.
//
//rowlint:noalloc
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
	case MsgGetFar:
		d.serveGetFar(m, e)
	default:
		d.fail(m, e, "cannot serve queued message type") //rowlint:ignore noalloc fatal protocol-error path; the run is already over
	}
}

// serveGetFar performs an RMW at the bank: any private copies are
// recalled first (sharers invalidated, an owner's dirty data pulled
// back), then the L3 updates the line in place and answers the
// requestor. The line stays at the L3 — far atomics never bounce it.
//
//rowlint:noalloc
func (d *Directory) serveGetFar(m *Msg, e *dirEntry) {
	d.Stats.FarOps.Inc()
	switch e.state {
	case dirI:
		// Uncontested: L3 (or DRAM) access plus the ALU operation.
		d.net.SendAfter(d.pool.New(Msg{
			Type: MsgFarDone, Line: m.Line, Src: d.nodeID, Dst: m.Requestor,
			Requestor: m.Requestor,
		}), d.dataDelay(m.Line)+1)
	case dirS:
		acks := 0
		for c := 0; c < 64; c++ {
			if e.sharers&(1<<uint(c)) == 0 {
				continue
			}
			acks++
			d.Stats.Invalidates.Inc()
			d.net.Send(d.pool.New(Msg{
				Type: MsgInv, Line: m.Line, Src: d.nodeID, Dst: c,
				Requestor: d.nodeID, // acks return to the bank
			}))
		}
		d.block(e, pending{requestor: int8(m.Requestor), far: true, farAcks: int8(acks)})
		if acks == 0 {
			d.finishFar(m.Line, e)
		}
	case dirM:
		// Recall the owner's copy; its Data returns to the bank. A
		// locked line stalls the recall at the owner, exactly like a
		// core-to-core forward.
		d.Stats.Forwards.Inc()
		d.net.Send(d.pool.New(Msg{
			Type: MsgFwdGetX, Line: m.Line, Src: d.nodeID, Dst: int(e.owner),
			Requestor: d.nodeID,
		}))
		d.block(e, pending{requestor: int8(m.Requestor), far: true, farData: true})
	}
}

//rowlint:noalloc
func (d *Directory) farAck(m *Msg) {
	e := d.lines.find(m.Line)
	if e == nil || !e.blocked || !e.pend.far {
		d.fail(m, e, "stray InvAck: no far recall in flight") //rowlint:ignore noalloc fatal protocol-error path; the run is already over
		return
	}
	e.pend.farAcks--
	if e.pend.farAcks == 0 && !e.pend.farData {
		d.finishFar(m.Line, e)
	}
}

//rowlint:noalloc
func (d *Directory) farData(m *Msg) {
	e := d.lines.find(m.Line)
	if e == nil || !e.blocked || !e.pend.far || !e.pend.farData {
		d.fail(m, e, "stray Data: no far recall awaiting owner data") //rowlint:ignore noalloc fatal protocol-error path; the run is already over
		return
	}
	e.pend.farData = false
	d.l3.Insert(m.Line, 0) // the recalled dirty line lands in the L3
	if e.pend.farAcks == 0 {
		d.finishFar(m.Line, e)
	}
}

// finishFar applies the RMW at the bank and releases the line.
//
//rowlint:noalloc
func (d *Directory) finishFar(line uint64, e *dirEntry) {
	req := int(e.pend.requestor)
	d.net.SendAfter(d.pool.New(Msg{
		Type: MsgFarDone, Line: line, Src: d.nodeID, Dst: req,
		Requestor: req,
	}), d.dataDelay(line)+1)
	e.state = dirI
	e.owner = -1
	e.sharers = 0
	e.blocked = false
	e.pend = pending{}
	d.drain(e)
}

// dataDelay models the bank-side access needed to source the line:
// L3 hit time, or DRAM on an L3 miss (the line is then installed).
//
//rowlint:noalloc
func (d *Directory) dataDelay(line uint64) uint64 {
	if d.l3.Lookup(line, true) != nil {
		d.Stats.L3Hits.Inc()
		return uint64(d.l3HitCycles)
	}
	d.Stats.L3Misses.Inc()
	d.l3.Insert(line, 0)
	return uint64(d.l3HitCycles + d.dramCycles)
}

//rowlint:noalloc
func (d *Directory) serveGetS(m *Msg, e *dirEntry) {
	req := m.Requestor
	switch e.state {
	case dirI:
		// Grant exclusive-clean: the common private-data fast path.
		d.net.SendAfter(d.pool.New(Msg{
			Type: MsgData, Line: m.Line, Src: d.nodeID, Dst: req,
			Requestor: req, Grant: GrantE,
		}), d.dataDelay(m.Line))
	case dirS:
		d.net.SendAfter(d.pool.New(Msg{
			Type: MsgData, Line: m.Line, Src: d.nodeID, Dst: req,
			Requestor: req, Grant: GrantS,
		}), d.dataDelay(m.Line))
	case dirM:
		d.Stats.Forwards.Inc()
		d.net.Send(d.pool.New(Msg{
			Type: MsgFwdGetS, Line: m.Line, Src: d.nodeID, Dst: int(e.owner),
			Requestor: req,
		}))
	}
	d.block(e, pending{requestor: int8(req)})
}

//rowlint:noalloc
func (d *Directory) serveGetX(m *Msg, e *dirEntry) {
	req := m.Requestor
	switch e.state {
	case dirI:
		d.net.SendAfter(d.pool.New(Msg{
			Type: MsgData, Line: m.Line, Src: d.nodeID, Dst: req,
			Requestor: req, Grant: GrantM,
		}), d.dataDelay(m.Line))
	case dirS:
		acks := 0
		for c := 0; c < 64; c++ {
			if e.sharers&(1<<uint(c)) == 0 || c == req {
				continue
			}
			acks++
			d.Stats.Invalidates.Inc()
			d.net.Send(d.pool.New(Msg{
				Type: MsgInv, Line: m.Line, Src: d.nodeID, Dst: c,
				Requestor: req,
			}))
		}
		d.net.SendAfter(d.pool.New(Msg{
			Type: MsgData, Line: m.Line, Src: d.nodeID, Dst: req,
			Requestor: req, Grant: GrantM, AckCount: acks,
		}), d.dataDelay(m.Line))
	case dirM:
		if int(e.owner) == req {
			// The recorded owner re-requests: its copy was silently
			// evicted (clean E eviction). Re-supply from the L3.
			d.net.SendAfter(d.pool.New(Msg{
				Type: MsgData, Line: m.Line, Src: d.nodeID, Dst: req,
				Requestor: req, Grant: GrantM,
			}), d.dataDelay(m.Line))
		} else {
			d.Stats.Forwards.Inc()
			d.net.Send(d.pool.New(Msg{
				Type: MsgFwdGetX, Line: m.Line, Src: d.nodeID, Dst: int(e.owner),
				Requestor: req,
			}))
		}
	}
	d.block(e, pending{requestor: int8(req), isWrite: true})
}

//rowlint:noalloc
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

//rowlint:noalloc
func (d *Directory) handleUnblock(m *Msg) {
	e := d.lines.find(m.Line)
	if e == nil || !e.blocked {
		d.fail(m, e, "Unblock for a line with no transaction in flight") //rowlint:ignore noalloc fatal protocol-error path; the run is already over
		return
	}
	if m.Src != int(e.pend.requestor) {
		//rowlint:ignore noalloc fatal protocol-error path; the run is already over
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
	e.blocked = false
	e.pend = pending{}
	d.drain(e)
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
// queued requests (used by the system's quiescence check): whether
// some entry holds a queue.
func (d *Directory) PendingWork() bool {
	return len(d.free) < len(d.queues)
}

// RetainedMsgs counts the messages parked in blocked lines' waiting
// queues — the bank's share of the pool's outstanding population (the
// end-of-run conservation check sums this across components).
func (d *Directory) RetainedMsgs() int {
	n := 0
	for _, q := range d.queues {
		n += len(q)
	}
	return n
}

// L3 exposes the bank's data array (for stats).
func (d *Directory) L3() *sram.Array { return d.l3 }

// WaitingOn reports, for a line with a transaction in flight, which
// cores the bank is waiting on before the transaction can close: the
// owner whose data recall or forward is outstanding, the sharers whose
// invalidation acks are missing, or — when the protocol legwork is done
// and only the requestor's Unblock is pending — the requestor itself.
// ok is false when the line has no transaction in flight. The deadlock
// diagnoser uses this to walk the wait-for chain.
func (d *Directory) WaitingOn(line uint64) (desc string, cores []int, ok bool) {
	e := d.lines.find(line)
	if e == nil || !e.blocked {
		return "", nil, false
	}
	owner, req := int(e.owner), int(e.pend.requestor)
	switch {
	case e.pend.farData:
		return fmt.Sprintf("far recall: awaiting dirty data from owner %d", owner),
			[]int{owner}, true
	case e.pend.far && e.pend.farAcks > 0:
		for c := 0; c < 64; c++ {
			if e.sharers&(1<<uint(c)) != 0 {
				cores = append(cores, c)
			}
		}
		return fmt.Sprintf("far recall: awaiting %d invalidation acks", e.pend.farAcks), cores, true
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
		if !e.blocked && e.wait == 0 {
			continue
		}
		out = append(out, fmt.Sprintf(
			"bank%d line=%#x state=%d owner=%d blocked=%v pend={req=%d write=%v far=%v acks=%d data=%v} waiting=%d",
			d.bank, line, e.state, e.owner, e.blocked,
			e.pend.requestor, e.pend.isWrite, e.pend.far, e.pend.farAcks, e.pend.farData,
			len(d.waiting(e))))
	}
	return out
}
