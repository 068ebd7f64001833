// Package cache implements the per-core private cache hierarchy: an
// L1D backed by an inclusive private L2, with MSHRs, an IP-stride
// prefetcher and the coherence-protocol endpoint (the "private cache"
// the directory sees). Cache locking for atomics is implemented here:
// external requests for a line locked in the core's Atomic Queue are
// stalled until the atomic unlocks.
package cache

import (
	"fmt"

	"rowsim/internal/coherence"
	"rowsim/internal/config"
	"rowsim/internal/slab"
	"rowsim/internal/sram"
	"rowsim/internal/stats"
)

// Coherence states stored in the sram line metadata.
const (
	StateI uint8 = iota
	StateS
	StateE
	StateM
)

// RespInfo describes a completed memory access back to the core.
type RespInfo struct {
	Line uint64
	// Latency is cycles from the Access call to the response.
	Latency uint64
	// MissLatency is cycles from the coherence request leaving the
	// core to the fill completing (0 for hits). This is what the
	// RW+Dir detector compares against its threshold.
	MissLatency uint64
	// FromPrivate marks fills served cache-to-cache by a remote
	// private cache.
	FromPrivate bool
	// Hit reports an L1 or L2 hit (no coherence transaction).
	Hit bool
}

// Client is the core-side interface the controller calls into. It is
// implemented by the owning core: a core talks only to its own private
// cache and vice versa.
type Client interface {
	// MemResp delivers the completion of an Access with the given tag.
	MemResp(tag uint64, info RespInfo)
	// ExternalRequest is invoked when an external coherence request
	// (Inv or Fwd) arrives for a line. The client returns true to
	// stall the request because the line is locked by an in-flight
	// atomic; it also uses this hook for ready-window contention
	// tracking.
	ExternalRequest(line uint64, write bool) (stall bool)
	// LineInvalidated reports that the line left the private cache
	// (external invalidation, forward, or eviction); the core uses it
	// to squash speculatively executed loads (TSO).
	LineInvalidated(line uint64)
	// LineLocked reports whether the line is locked by the core's AQ;
	// used to veto evictions.
	LineLocked(line uint64) bool
	// ForceRelease asks the core to break an overlong lock stall on
	// the line (deadlock avoidance); it returns true when the lock was
	// released (the core squashes and replays that atomic's lock
	// acquisition).
	ForceRelease(line uint64) bool
}

// Tags for internal (non-core) waiters.
const (
	// TagPrefetch marks prefetch fills; no response is delivered.
	TagPrefetch uint64 = 1<<64 - 1
)

// releaseAfter is the stall age (cycles) after which a locked line is
// forcibly released to guarantee forward progress. Real hardware
// bounds cache-locking time similarly; the value is above ordinary
// lock hold times (even heavily contended holds stay in the hundreds
// of cycles) so it only breaks genuine cross-core waiting cycles.
const releaseAfter = 2048

// stalledRoom is the stalled external requests a cache has room for
// before its table grows. The bound is one per locked line, an AQ's
// worth, but no rowperf workload stalls more than 2 at once.
const stalledRoom = 4

type mshr struct {
	write       bool
	waiters     slab.List // of Private.waits, in arrival order
	dataArrived bool
	grant       coherence.GrantState
	fromPrivate bool
	pendingAcks int
	sentAt      uint64
}

type waiter struct {
	tag   uint64
	at    uint64 // Access call cycle
	write bool
}

// access is a demand access the cache holds in its waits slab: a
// waiter behind the fill of its line's MSHR, or a miss parked for an
// MSHR.
type access struct {
	line uint64
	waiter
}

type strideEntry struct {
	pc       uint64
	lastAddr uint64
	stride   int64
	conf     int
}

type stalledExt struct {
	msg     coherence.Msg
	stallAt uint64
}

// lineTable is a dense table of records keyed by line: the outstanding
// misses and the stalled external requests. Each holds a few lines,
// the largest at most the MSHR limit (16 by default), so a linear scan
// over a flat array beats a map on every hot-path lookup, and
// NewPrivate sizes each table to what runs hold at once. Removal swaps
// the last entry in, so entries are in no particular order.
type lineTable[T any] struct {
	lines []uint64
	vals  []T
}

func newLineTable[T any](n int) lineTable[T] {
	return lineTable[T]{lines: make([]uint64, 0, n), vals: make([]T, 0, n)}
}

// get returns the line's record, nil when it has none. The pointer is
// valid only until the next add or remove.
func (t *lineTable[T]) get(line uint64) *T {
	for i, l := range t.lines {
		if l == line {
			return &t.vals[i]
		}
	}
	return nil
}

// add inserts a record for a line that has none and returns it, valid
// as get's is.
func (t *lineTable[T]) add(line uint64, v T) *T {
	t.lines = append(t.lines, line)
	t.vals = append(t.vals, v)
	return &t.vals[len(t.vals)-1]
}

func (t *lineTable[T]) removeAt(i int) {
	n := len(t.lines) - 1
	t.lines[i] = t.lines[n]
	t.vals[i] = t.vals[n]
	var zero T
	t.vals[n] = zero
	t.lines, t.vals = t.lines[:n], t.vals[:n]
}

// remove deletes the line's record and returns it; ok is false when it
// has none.
func (t *lineTable[T]) remove(line uint64) (v T, ok bool) {
	for i, l := range t.lines {
		if l == line {
			v = t.vals[i]
			t.removeAt(i)
			return v, true
		}
	}
	return v, false
}

func (t *lineTable[T]) len() int { return len(t.lines) }

// reset empties the table, keeping its storage.
func (t *lineTable[T]) reset() {
	clear(t.vals)
	t.lines, t.vals = t.lines[:0], t.vals[:0]
}

// Stats aggregates controller behaviour.
type Stats struct {
	Accesses      stats.Counter
	L1Hits        stats.Counter
	L2Hits        stats.Counter
	Misses        stats.Counter
	MissLatency   stats.Mean       // fill latency of demand misses (Fig. 11)
	MissHist      *stats.Histogram // distribution of the same
	Prefetches    stats.Counter
	Writebacks    stats.Counter
	MSHRFull      stats.Counter // demand misses parked behind a full MSHR file, each once
	ExtStalls     stats.Counter // external requests stalled on a locked line
	ForcedRel     stats.Counter // locks broken by the progress guarantee
	Invalidations stats.Counter
	Forwarded     stats.Counter // fills served to other cores cache-to-cache
}

// Private is one core's private cache hierarchy and protocol endpoint.
type Private struct {
	coreID int
	net    coherence.Network
	client Client
	bankOf func(line uint64) int

	l1 *sram.Array
	l2 *sram.Array

	lineMask uint64

	l1Hit int
	l2Hit int

	mshrs     lineTable[mshr]
	mshrLimit int
	// parked holds the demand misses that found no MSHR free, oldest
	// first; Tick hands each freed MSHR to the head.
	parked slab.List
	// waits holds the records of parked and of every MSHR's waiters.
	// NewPrivate sizes it for two accesses per MSHR; a miss storm that
	// parks more grows it to its high-water mark.
	waits   slab.Slab[access]
	stalled lineTable[stalledExt]

	// work counts observable actions taken by Tick (event completions,
	// forced releases). The run loop's cross-check asserts it
	// stays unchanged when a skipped Tick is replayed.
	work uint64

	events slab.Wheel[event]
	now    uint64

	strides   []strideEntry
	pfDegree  int
	pfConfMin int

	// noForcedRelease suppresses the time-based forced-release sweep:
	// the model checker does not model the release timeout.
	noForcedRelease bool

	sink *coherence.ErrorSink

	Stats Stats
}

// NewPrivate builds the hierarchy from the memory configuration.
func NewPrivate(coreID int, cfg *config.Config, net coherence.Network, client Client, bankOf func(uint64) int) *Private {
	m := cfg.Mem
	p := &Private{
		coreID:    coreID,
		net:       net,
		client:    client,
		bankOf:    bankOf,
		l1:        sram.New(m.L1D.SizeBytes, m.L1D.Ways, m.LineBytes),
		l2:        sram.New(m.L2.SizeBytes, m.L2.Ways, m.LineBytes),
		lineMask:  ^uint64(m.LineBytes - 1),
		l1Hit:     m.L1D.HitCycles,
		l2Hit:     m.L2.HitCycles,
		mshrLimit: m.MSHRs,
		mshrs:     newLineTable[mshr](m.MSHRs),
		stalled:   newLineTable[stalledExt](stalledRoom),
		strides:   make([]strideEntry, 64),
		pfDegree:  m.PrefetcherDegree,
		pfConfMin: m.PrefetcherDistance,
	}
	p.events.Reserve(2 * slab.WheelSize) // two events a bucket, which no rowperf workload passes
	p.waits.Reserve(2 * m.MSHRs)
	p.Stats.MissHist = stats.NewHistogram(1 << 16)
	return p
}

// SetErrorSink wires the system-wide protocol-error sink. Without one,
// violations panic (fail-fast for components driven directly by tests).
func (p *Private) SetErrorSink(s *coherence.ErrorSink) { p.sink = s }

// SetMsgPool does nothing: messages travel by value.
//
// Deprecated: only cmd/rowperf's lock-step driver calls it; ROADMAP
// item 7 deletes it with that driver.
func (p *Private) SetMsgPool(*coherence.MsgPool) {}

// SetNow advances the controller clock without running Tick. The
// system calls it on a visit that has nothing for Tick to do: the core
// may still issue Accesses this cycle, and those schedule events
// relative to now.
func (p *Private) SetNow(cycle uint64) { p.now = cycle }

// WorkDone counts observable Tick actions; the run loop's cross-check
// replays a skipped Tick and asserts this does not move.
func (p *Private) WorkDone() uint64 { return p.work }

// NextEventAt returns the earliest cycle strictly after now at which
// Tick would do observable work without further input: the earliest
// pending pipeline event, or the expiry of the oldest stalled external
// request's forced-release window. ^uint64(0) means the controller is
// quiescent until mail arrives or its core issues an access (both of
// which force a visit on their own).
func (p *Private) NextEventAt(now uint64) uint64 {
	at := ^uint64(0)
	if d, ok := p.events.Ahead(p.now); ok {
		at = p.now + d
	}
	if !p.noForcedRelease {
		// Tick releases a stalled entry once cycle-stallAt exceeds
		// releaseAfter, i.e. from stallAt+releaseAfter+1 on.
		for i := range p.stalled.vals {
			if t := p.stalled.vals[i].stallAt + releaseAfter + 1; t < at {
				at = t
			}
		}
	}
	if at <= now {
		at = now + 1
	}
	return at
}

// fail raises a structured protocol error for this endpoint.
func (p *Private) fail(m *coherence.Msg, reason string) {
	pe := &coherence.ProtocolError{
		Cycle:     p.now,
		Component: fmt.Sprintf("cache %d", p.coreID),
		Reason:    reason,
	}
	if m != nil {
		pe.Op = m.String()
		pe.Line = m.Line
		if ms := p.mshrs.get(m.Line); ms != nil {
			pe.State = fmt.Sprintf("mshr{write=%v dataArrived=%v grant=%d acks=%d waiters=%d sentAt=%d}",
				ms.write, ms.dataArrived, ms.grant, ms.pendingAcks, p.waits.Len(ms.waiters), ms.sentAt)
		}
	}
	coherence.Raise(p.sink, pe)
}

// Line masks an address to its cacheline address.
func (p *Private) Line(addr uint64) uint64 { return addr & p.lineMask }

// State returns the coherence state the private hierarchy holds for
// the line (L1 takes precedence; both are kept consistent).
func (p *Private) State(line uint64) uint8 {
	if l := p.l1.Peek(line); l != nil {
		return l.Meta
	}
	if l := p.l2.Peek(line); l != nil {
		return l.Meta
	}
	return StateI
}

func (p *Private) setState(line uint64, st uint8) {
	if l := p.l1.Peek(line); l != nil {
		l.Meta = st
	}
	if l := p.l2.Peek(line); l != nil {
		l.Meta = st
	}
}

// push schedules e behind everything already scheduled for its cycle.
// Every delay is a hit latency, shorter than the wheel, and the run
// loop ticks the controller at every cycle it has an event for, so e
// is due in [now, now+WheelSize) and its bucket holds no other cycle.
// Otherwise the event is dropped with a protocol error.
func (p *Private) push(e event) {
	switch {
	case e.at-p.now >= slab.WheelSize:
		p.fail(nil, fmt.Sprintf("pipeline event for cycle %d outside the %d-cycle wheel's window", e.at, slab.WheelSize))
	case !p.events.Push(e.at, e):
		p.fail(nil, fmt.Sprintf("pipeline event for cycle %d lands in a wheel bucket that holds another cycle: the clock passed a queued event or ran backwards", e.at))
	}
}

// Access requests the line for the core. write asks for exclusive
// permission. The response arrives via Client.MemResp(tag) unless tag
// is TagPrefetch. The call itself is instantaneous; lookup latency is
// modeled inside the controller.
func (p *Private) Access(tag uint64, addr uint64, write bool) {
	line := p.Line(addr)
	p.Stats.Accesses.Inc()
	if l := p.l1.Lookup(line, true); l != nil && p.permOK(l.Meta, write) {
		if write {
			l.Meta = StateM
			if l2 := p.l2.Peek(line); l2 != nil {
				l2.Meta = StateM
			}
		}
		p.Stats.L1Hits.Inc()
		if tag != TagPrefetch {
			p.push(event{at: p.now + uint64(p.l1Hit), kind: evRespond, tag: tag, line: line, lat: uint64(p.l1Hit)})
		}
		return
	}
	if l := p.l2.Lookup(line, true); l != nil && p.permOK(l.Meta, write) {
		// Fill L1 from L2.
		st := l.Meta
		if write {
			st = StateM
			l.Meta = StateM
		}
		p.installL1(line, st)
		p.Stats.L2Hits.Inc()
		if tag != TagPrefetch {
			p.push(event{at: p.now + uint64(p.l2Hit), kind: evRespond, tag: tag, line: line, lat: uint64(p.l2Hit)})
		}
		return
	}
	// Miss (or upgrade): goes through the MSHR after the lookup time.
	p.push(event{at: p.now + uint64(p.l2Hit), kind: evMiss, tag: tag, line: line, wr: write, lat: uint64(p.l2Hit)})
}

func (p *Private) permOK(state uint8, write bool) bool {
	if state == StateI {
		return false
	}
	if write {
		return state == StateM || state == StateE
	}
	return true
}

// startMiss allocates or merges into an MSHR once the lookup pipeline
// determined the access misses. woken marks the head of the parked
// queue, which goes ahead of the misses still parked behind it.
func (p *Private) startMiss(tag uint64, line uint64, write bool, at uint64, woken bool) {
	// The line may have arrived while the lookup was in flight.
	if st := p.State(line); p.permOK(st, write) {
		if write {
			p.setState(line, StateM)
		}
		if tag != TagPrefetch {
			p.client.MemResp(tag, RespInfo{Line: line, Latency: p.now - at, Hit: true})
		}
		return
	}
	if m := p.mshrs.get(line); m != nil {
		// Secondary miss: merge. A write waiter merged onto an
		// in-flight GetS is re-issued as an upgrade when the read
		// fill completes (see maybeComplete).
		if tag != TagPrefetch {
			p.waits.Push(&m.waiters, access{line, waiter{tag: tag, at: at, write: write}})
		}
		return
	}
	if p.mshrLimit > 0 && (p.mshrs.len() >= p.mshrLimit || !p.parked.Empty() && !woken) {
		// All fill buffers busy, or older misses waiting for one:
		// prefetches drop, demand misses park behind the older ones.
		if tag == TagPrefetch {
			return
		}
		p.Stats.MSHRFull.Inc()
		p.waits.Push(&p.parked, access{line, waiter{tag: tag, at: at, write: write}})
		return
	}
	m := mshr{write: write, sentAt: p.now}
	if tag != TagPrefetch {
		p.waits.Push(&m.waiters, access{line, waiter{tag: tag, at: at, write: write}})
	}
	p.mshrs.add(line, m)
	p.Stats.Misses.Inc()
	t := coherence.MsgGetS
	if write {
		t = coherence.MsgGetX
	}
	p.net.Send(coherence.Msg{
		Type: t, Line: line, Src: p.coreID, Dst: p.bankOf(line), Requestor: p.coreID,
	})
}

// StoreComplete performs a store-buffer drain write when the line is
// held with write permission; it returns false when a GetX is needed
// first (the caller then issues an Access with write=true).
func (p *Private) StoreComplete(line uint64) bool {
	if l := p.l1.Lookup(line, true); l != nil && (l.Meta == StateM || l.Meta == StateE) {
		l.Meta = StateM
		if l2 := p.l2.Peek(line); l2 != nil {
			l2.Meta = StateM
		}
		return true
	}
	if l2 := p.l2.Lookup(line, true); l2 != nil && (l2.Meta == StateM || l2.Meta == StateE) {
		l2.Meta = StateM
		p.installL1(line, StateM)
		return true
	}
	return false
}

// TrainPrefetch feeds the IP-stride prefetcher with a demand load.
func (p *Private) TrainPrefetch(pc, addr uint64) {
	if p.pfDegree <= 0 {
		return
	}
	e := &p.strides[(pc>>2)&63]
	if e.pc != pc {
		*e = strideEntry{pc: pc, lastAddr: addr}
		return
	}
	stride := int64(addr) - int64(e.lastAddr)
	e.lastAddr = addr
	if stride == 0 {
		return
	}
	if stride == e.stride {
		if e.conf < 8 {
			e.conf++
		}
	} else {
		e.stride = stride
		e.conf = 0
		return
	}
	if e.conf < p.pfConfMin {
		return
	}
	for d := 1; d <= p.pfDegree; d++ {
		target := uint64(int64(addr) + e.stride*int64(d))
		line := p.Line(target)
		if line == p.Line(addr) || p.State(line) != StateI {
			continue
		}
		if p.mshrs.get(line) != nil {
			continue
		}
		p.Stats.Prefetches.Inc()
		p.Access(TagPrefetch, target, false)
	}
}

// Deliver processes protocol messages drained from the network.
func (p *Private) Deliver(msgs []coherence.Msg) {
	for i := range msgs {
		p.handle(&msgs[i])
	}
}

// handle dispatches one message.
func (p *Private) handle(m *coherence.Msg) {
	switch m.Type {
	case coherence.MsgData:
		p.handleData(m)
	case coherence.MsgInvAck:
		if ms := p.mshrs.get(m.Line); ms != nil {
			ms.pendingAcks--
			p.maybeComplete(m.Line, ms)
		}
	case coherence.MsgInv:
		p.handleExternal(m, true)
	case coherence.MsgFwdGetX:
		p.handleExternal(m, true)
	case coherence.MsgFwdGetS:
		p.handleExternal(m, false)
	default:
		p.fail(m, "unexpected message type")
	}
}

func (p *Private) handleData(m *coherence.Msg) {
	ms := p.mshrs.get(m.Line)
	if ms == nil {
		// Response for a line whose MSHR disappeared cannot happen:
		// MSHRs only retire on completion.
		p.fail(m, "Data response without a matching MSHR")
		return
	}
	ms.dataArrived = true
	ms.grant = m.Grant
	ms.fromPrivate = m.FromPrivate
	ms.pendingAcks += m.AckCount
	p.maybeComplete(m.Line, ms)
}

func (p *Private) maybeComplete(line uint64, msp *mshr) {
	if !msp.dataArrived || msp.pendingAcks != 0 {
		return
	}
	// Take the entry out first: re-issued upgrade misses below allocate
	// a fresh MSHR for the same line, and the remove invalidates msp.
	ms, _ := p.mshrs.remove(line)

	st := StateS
	switch ms.grant {
	case coherence.GrantE:
		st = StateE
	case coherence.GrantM:
		st = StateM
	}
	if ms.write {
		st = StateM
	}
	p.install(line, st)

	// Close the transaction at the directory.
	ut := coherence.MsgUnblock
	grant := ms.grant
	if ms.grant == coherence.GrantM || ms.write {
		ut = coherence.MsgUnblockX
	}
	p.net.Send(coherence.Msg{
		Type: ut, Line: line, Src: p.coreID, Dst: p.bankOf(line),
		Requestor: p.coreID, Grant: grant,
	})

	fillLat := p.now - ms.sentAt
	if !ms.waiters.Empty() {
		p.Stats.MissLatency.Observe(float64(fillLat))
		p.Stats.MissHist.Observe(float64(fillLat))
	}

	// Serve read-satisfiable waiters, then re-issue writers that a
	// shared grant cannot satisfy (upgrade). Two passes over the same
	// list preserve the historical serve-then-reissue order without a
	// scratch buffer; its records are freed only after both.
	for r := ms.waiters.Front(); r != 0; r = p.waits.Next(r) {
		w := p.waits.At(r).waiter
		if w.write && st != StateM && st != StateE {
			continue
		}
		if w.write {
			p.setState(line, StateM)
		}
		p.client.MemResp(w.tag, RespInfo{
			Line:        line,
			Latency:     p.now - w.at,
			MissLatency: fillLat,
			FromPrivate: ms.fromPrivate,
		})
	}
	for r := ms.waiters.Front(); r != 0; r = p.waits.Next(r) {
		if w := p.waits.At(r).waiter; w.write && st != StateM && st != StateE {
			// GrantS cannot satisfy writers: upgrade.
			p.startMiss(w.tag, line, true, w.at, false)
		}
	}
	p.waits.Free(ms.waiters)
}

// handleExternal processes Inv/FwdGetS/FwdGetX, keeping a copy in the
// stalled table when the line is locked by the core's atomic queue.
func (p *Private) handleExternal(m *coherence.Msg, write bool) {
	if stall := p.client.ExternalRequest(m.Line, write); stall {
		p.Stats.ExtStalls.Inc()
		if prev := p.stalled.get(m.Line); prev != nil {
			// The directory serializes transactions per line, so at
			// most one external request can be outstanding.
			p.fail(m, fmt.Sprintf("second stalled external request (already have %s)", prev.msg))
			return
		}
		p.stalled.add(m.Line, stalledExt{msg: *m, stallAt: p.now})
		return
	}
	p.serveExternal(m)
}

func (p *Private) serveExternal(m *coherence.Msg) {
	line := m.Line
	switch m.Type {
	case coherence.MsgInv:
		p.Stats.Invalidations.Inc()
		p.l1.Invalidate(line)
		p.l2.Invalidate(line)
		p.client.LineInvalidated(line)
		p.net.SendAfter(coherence.Msg{
			Type: coherence.MsgInvAck, Line: line, Src: p.coreID, Dst: m.Requestor,
			Requestor: m.Requestor,
		}, uint64(p.l1Hit))
	case coherence.MsgFwdGetX:
		p.Stats.Forwarded.Inc()
		p.l1.Invalidate(line)
		p.l2.Invalidate(line)
		p.client.LineInvalidated(line)
		p.net.SendAfter(coherence.Msg{
			Type: coherence.MsgData, Line: line, Src: p.coreID, Dst: m.Requestor,
			Requestor: m.Requestor, Grant: coherence.GrantM, FromPrivate: true,
		}, uint64(p.l1Hit))
	case coherence.MsgFwdGetS:
		p.Stats.Forwarded.Inc()
		p.setState(line, StateS)
		p.net.SendAfter(coherence.Msg{
			Type: coherence.MsgData, Line: line, Src: p.coreID, Dst: m.Requestor,
			Requestor: m.Requestor, Grant: coherence.GrantS, FromPrivate: true,
		}, uint64(p.l1Hit))
	default:
		p.fail(m, "cannot serve external request type")
	}
}

// LockReleased must be called by the core when an atomic unlocks a
// line; any stalled external request for it is then served.
func (p *Private) LockReleased(line uint64) {
	if s, ok := p.stalled.remove(line); ok {
		p.serveExternal(&s.msg)
	}
}

// install places a fill into both levels (L2 inclusive of L1),
// handling evictions and writebacks. Locked lines are never evicted.
func (p *Private) install(line uint64, st uint8) {
	p.installL2(line, st)
	p.installL1(line, st)
}

func (p *Private) installL1(line uint64, st uint8) {
	_, _, _, ok := p.l1.InsertVeto(line, st, p.client.LineLocked)
	_ = ok // if every way is locked the fill stays L2-only
}

func (p *Private) installL2(line uint64, st uint8) {
	evTag, evMeta, evicted, ok := p.l2.InsertVeto(line, st, p.client.LineLocked)
	if !ok {
		return // uncacheable fill: extraordinarily rare
	}
	if !evicted {
		return
	}
	// Inclusive: the L1 copy must go too.
	p.l1.Invalidate(evTag)
	if evMeta == StateM || evMeta == StateE {
		// Writing the line back surrenders snoop coverage, so
		// speculative loads of it must be squashed (the directory
		// stops forwarding invalidations once ownership is released).
		// Silent S evictions keep coverage: the directory still lists
		// this core as a sharer and will send the invalidation.
		p.client.LineInvalidated(evTag)
		p.Stats.Writebacks.Inc()
		p.net.Send(coherence.Msg{
			Type: coherence.MsgPutX, Line: evTag, Src: p.coreID, Dst: p.bankOf(evTag),
			Requestor: p.coreID,
		})
	}
}

// Warm pre-installs a line in the L2 (warm start). The directory must
// be warmed to a matching state by the caller.
func (p *Private) Warm(line uint64, state uint8) {
	p.l2.Insert(line, state)
}

// Tick advances internal pipelines: lookup completions, parked misses
// and the forced-release progress guarantee.
func (p *Private) Tick(cycle uint64) {
	from := p.now
	p.now = cycle
	// Every queued event is due in [from, from+WheelSize), one cycle a
	// bucket, so the buckets read circularly from from's are in time
	// order. A bucket that is not due holds what the handlers pushed.
	for at := from; at <= cycle && at-from < slab.WheelSize; at++ {
		for evs := p.events.Take(at); !evs.Empty(); {
			e := p.events.Pop(&evs)
			p.work++
			switch e.kind {
			case evRespond:
				p.client.MemResp(e.tag, RespInfo{Line: e.line, Latency: e.lat, Hit: true})
			case evMiss:
				p.startMiss(e.tag, e.line, e.wr, e.at-e.lat, false)
			}
		}
	}
	// An MSHR retires only in Deliver, which the run loop follows with
	// this Tick, so parked misses need no wake-up time of their own.
	for !p.parked.Empty() && p.mshrs.len() < p.mshrLimit {
		m := p.waits.Pop(&p.parked)
		p.work++
		p.startMiss(m.tag, m.line, m.write, m.at, true)
	}
	for i := 0; !p.noForcedRelease && i < p.stalled.len(); {
		s := &p.stalled.vals[i]
		if cycle-s.stallAt <= releaseAfter {
			i++
			continue
		}
		line := p.stalled.lines[i]
		if p.client.ForceRelease(line) {
			p.Stats.ForcedRel.Inc()
			p.work++
			m := s.msg // a copy: removeAt overwrites slot i
			p.stalled.removeAt(i)
			p.serveExternal(&m)
			// removeAt swapped the tail into slot i: revisit it.
		} else {
			s.stallAt = cycle // imminent unlock: re-arm
			i++
		}
	}
}

// PendingWork reports in-flight or parked misses, queued events or
// stalled external requests (quiescence check).
func (p *Private) PendingWork() bool {
	return p.mshrs.len() > 0 || !p.parked.Empty() || !p.events.Empty() || p.stalled.len() > 0
}

// OldestMiss returns the line of the oldest outstanding or parked
// demand miss, with a short description (deadlock diagnostics). ok is
// false when nothing is outstanding. It is a minimum over (sentAt,
// line) with a total-order tie-break: visit order cannot change the
// result.
func (p *Private) OldestMiss() (line uint64, desc string, ok bool) {
	best := ^uint64(0)
	for i := range p.mshrs.vals {
		l, m := p.mshrs.lines[i], &p.mshrs.vals[i]
		if m.sentAt < best || (m.sentAt == best && l < line) {
			best = m.sentAt
			line = l
			op := "GetS"
			if m.write {
				op = "GetX"
			}
			desc = fmt.Sprintf("%s sent at cycle %d (dataArrived=%v acks=%d)", op, m.sentAt, m.dataArrived, m.pendingAcks)
			ok = true
		}
	}
	for i, m := range p.waits.Values(p.parked) {
		if m.at < best || (m.at == best && m.line < line) {
			best, line, ok = m.at, m.line, true
			desc = fmt.Sprintf("miss at cycle %d parked, %d ahead, MSHR file full", m.at, i)
		}
	}
	return line, desc, ok
}

// HasStalledExternal reports whether an external request is stalled on
// this line (used by tests).
func (p *Private) HasStalledExternal(line uint64) bool {
	return p.stalled.get(line) != nil
}

// DebugMSHRs describes every outstanding miss (deadlock diagnostics).
func (p *Private) DebugMSHRs() []string {
	var out []string
	for i := range p.mshrs.vals {
		line, m := p.mshrs.lines[i], &p.mshrs.vals[i]
		out = append(out, fmt.Sprintf(
			"cache%d mshr line=%#x write=%v dataArrived=%v grant=%d acks=%d waiters=%d sentAt=%d",
			p.coreID, line, m.write, m.dataArrived, m.grant, m.pendingAcks, p.waits.Len(m.waiters), m.sentAt))
	}
	for _, line := range p.stalled.lines {
		out = append(out, fmt.Sprintf("cache%d stalledExt line=%#x", p.coreID, line))
	}
	return out
}

// ForEachLine reports every line the private hierarchy holds with its
// effective coherence state (invariant checking).
func (p *Private) ForEachLine(fn func(line uint64, state uint8)) {
	seen := make(map[uint64]bool)
	p.l1.ForEach(func(tag uint64, meta uint8) {
		seen[tag] = true
		fn(tag, meta)
	})
	p.l2.ForEach(func(tag uint64, meta uint8) {
		if !seen[tag] {
			fn(tag, meta)
		}
	})
}
