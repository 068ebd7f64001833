package cache

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"rowsim/internal/coherence"
	"rowsim/internal/config"
	"rowsim/internal/slab"
	"rowsim/internal/xrand"
)

// heapEvent is an event numbered in push order.
type heapEvent struct {
	event
	seq uint64
}

// eventHeap is the queue the controller kept its pipeline in before the
// timing wheel: a binary min-heap ordered by (at, seq). It survives here
// as the reference the wheel is compared against.
type eventHeap []heapEvent

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) pushEvent(e heapEvent) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *eventHeap) popEvent() heapEvent {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && s.less(l, min) {
			min = l
		}
		if r < n && s.less(r, min) {
			min = r
		}
		if min == i {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return top
}

// controller is what the differential driver calls on both sides.
type controller interface {
	Access(tag, addr uint64, write bool)
	StoreComplete(line uint64) bool
	TrainPrefetch(pc, addr uint64)
	Deliver(msgs []coherence.Msg)
	Tick(cycle uint64)
	SetNow(cycle uint64)
	NextEventAt(now uint64) uint64
	PendingWork() bool
	WorkDone() uint64
}

// refPrivate is the controller as it was before the wheel: the heap for
// a queue. Everything else, parking and waking misses included, is the
// real Private's code: after each call, whatever it scheduled is moved
// out of its wheel into the heap, so its own Tick never finds an event.
type refPrivate struct {
	p   *Private
	h   eventHeap
	seq uint64
}

// absorb moves the wheel's events into the heap. A bucket holds one
// cycle in push order, so numbering each bucket in turn keeps the push
// order of every cycle.
func (r *refPrivate) absorb() {
	for b := range uint64(slab.WheelSize) {
		for _, e := range r.p.events.Bucket(b) {
			r.seq++
			r.h.pushEvent(heapEvent{e, r.seq})
		}
	}
	r.p.events.Reset()
}

func (r *refPrivate) Access(tag, addr uint64, write bool) {
	r.p.Access(tag, addr, write)
	r.absorb()
}

func (r *refPrivate) StoreComplete(line uint64) bool { return r.p.StoreComplete(line) }

func (r *refPrivate) TrainPrefetch(pc, addr uint64) {
	r.p.TrainPrefetch(pc, addr)
	r.absorb()
}

func (r *refPrivate) Deliver(msgs []coherence.Msg) {
	r.p.Deliver(msgs)
	r.absorb()
}

func (r *refPrivate) Tick(cycle uint64) {
	r.p.now = cycle
	for len(r.h) > 0 && r.h[0].at <= cycle {
		e := r.h.popEvent()
		r.p.work++
		switch e.kind {
		case evRespond:
			r.p.client.MemResp(e.tag, RespInfo{Line: e.line, Latency: e.lat, Hit: true})
		default:
			r.p.startMiss(e.tag, e.line, e.wr, e.at-e.lat, false)
		}
		r.absorb()
	}
	r.p.Tick(cycle) // the wheel is empty: only the wake and the forced-release sweep run
}

func (r *refPrivate) SetNow(cycle uint64) { r.p.SetNow(cycle) }

func (r *refPrivate) NextEventAt(now uint64) uint64 {
	at := r.p.NextEventAt(now)
	if len(r.h) > 0 {
		at = min(at, max(r.h[0].at, now+1))
	}
	return at
}

func (r *refPrivate) PendingWork() bool { return len(r.h) > 0 || r.p.PendingWork() }
func (r *refPrivate) WorkDone() uint64  { return r.p.WorkDone() }

// recorder is one side's client and network: it logs every response,
// invalidation and message in the order they happen, stamped with the
// cycle the driver is at.
type recorder struct {
	cycle uint64
	log   []string
	resps int
	sent  []coherence.Msg
}

func (r *recorder) MemResp(tag uint64, info RespInfo) {
	r.resps++
	r.log = append(r.log, fmt.Sprintf("c%d resp tag=%d %+v", r.cycle, tag, info))
}
func (r *recorder) ExternalRequest(uint64, bool) bool { return false }
func (r *recorder) LineInvalidated(line uint64) {
	r.log = append(r.log, fmt.Sprintf("c%d invalidated %#x", r.cycle, line))
}
func (r *recorder) LineLocked(uint64) bool   { return false }
func (r *recorder) ForceRelease(uint64) bool { return false }
func (r *recorder) Send(m coherence.Msg)     { r.SendAfter(m, 0) }
func (r *recorder) SendAfter(m coherence.Msg, extra uint64) {
	r.log = append(r.log, fmt.Sprintf("c%d send %s grant=%d +%d", r.cycle, m, m.Grant, extra))
	r.sent = append(r.sent, m)
}

// diffRun drives the wheel controller and the heap reference through
// one seeded history, playing core and directory, and compares all that
// can be observed of them after every call.
type diffRun struct {
	t   *testing.T
	rng *xrand.RNG

	real    *Private
	ref     *refPrivate
	realRec *recorder
	refRec  *recorder

	cycle   uint64
	lines   []uint64
	nextTag uint64
	pfAddr  uint64
	seen    int        // requests in realRec.sent already answered
	mail    []mailItem // replies and external requests not yet delivered
	checked int        // log entries already compared
}

type mailItem struct {
	at  uint64
	msg coherence.Msg
}

func newDiffRun(t *testing.T, cfg *config.Config, seed uint64) *diffRun {
	d := &diffRun{t: t, rng: xrand.New(seed), realRec: &recorder{}, refRec: &recorder{}, pfAddr: 1 << 30}
	bank := func(uint64) int { return 32 }
	d.real = NewPrivate(0, cfg, d.realRec, d.realRec, bank)
	d.ref = &refPrivate{p: NewPrivate(0, cfg, d.refRec, d.refRec, bank)}
	// Four L2 sets, more lines in each than the L2 has ways: hits,
	// merges, upgrades, evictions and writebacks all occur.
	l2Sets := uint64(cfg.Mem.L2.SizeBytes / (cfg.Mem.L2.Ways * cfg.Mem.LineBytes))
	for set := uint64(0); set < 4; set++ {
		for k := uint64(0); k < uint64(cfg.Mem.L2.Ways)+3; k++ {
			d.lines = append(d.lines, (k*l2Sets+set)*uint64(cfg.Mem.LineBytes))
		}
	}
	return d
}

func (d *diffRun) line() uint64 { return d.lines[d.rng.Intn(len(d.lines))] }

// do applies one call to both sides and compares them.
func (d *diffRun) do(what string, op func(c controller, side int)) {
	d.t.Helper()
	d.realRec.cycle, d.refRec.cycle = d.cycle, d.cycle
	op(d.real, 0)
	op(d.ref, 1)
	d.compare(what)
}

func (d *diffRun) compare(what string) {
	d.t.Helper()
	fail := func(format string, args ...any) {
		d.t.Helper()
		d.t.Fatalf("cycle %d, after %s: %s", d.cycle, what, fmt.Sprintf(format, args...))
	}
	got, want := d.realRec.log, d.refRec.log
	for i := d.checked; i < len(got) || i < len(want); i++ {
		switch {
		case i >= len(got):
			fail("missing %q", want[i])
		case i >= len(want):
			fail("unexpected %q", got[i])
		case got[i] != want[i]:
			fail("got %q, want %q", got[i], want[i])
		}
	}
	d.checked = len(got)
	if !reflect.DeepEqual(d.real.Stats, d.ref.p.Stats) {
		fail("stats differ:\n got %+v\nwant %+v", d.real.Stats, d.ref.p.Stats)
	}
	if g, w := d.real.WorkDone(), d.ref.WorkDone(); g != w {
		fail("WorkDone = %d, want %d", g, w)
	}
	now := d.real.now
	if g, w := d.real.NextEventAt(now), d.ref.NextEventAt(now); g != w {
		fail("NextEventAt(%d) = %d, want %d", now, g, w)
	}
	if g, w := d.real.PendingWork(), d.ref.PendingWork(); g != w {
		fail("PendingWork = %v, want %v", g, w)
	}
	gat, gok := d.real.EarliestPipelineEvent()
	if wok := len(d.ref.h) > 0; gok != wok || (wok && gat != d.ref.h[0].at) {
		fail("EarliestPipelineEvent = %d, %v; the heap holds %d events", gat, gok, len(d.ref.h))
	}
}

// directory answers the requests the controller has sent since the last
// call: Data after a random delay, for a GetX sometimes with
// invalidation acks that arrive on their own schedule, before or after.
func (d *diffRun) directory() {
	for ; d.seen < len(d.realRec.sent); d.seen++ {
		req := d.realRec.sent[d.seen]
		if req.Type != coherence.MsgGetS && req.Type != coherence.MsgGetX {
			continue
		}
		data := coherence.Msg{Type: coherence.MsgData, Line: req.Line, Src: 32}
		if req.Type == coherence.MsgGetX {
			data.Grant = coherence.GrantM
			data.AckCount = d.rng.Intn(3)
		} else {
			data.Grant = []coherence.GrantState{coherence.GrantS, coherence.GrantS, coherence.GrantE}[d.rng.Intn(3)]
		}
		d.mail = append(d.mail, mailItem{d.cycle + 2 + uint64(d.rng.Intn(60)), data})
		for i := 0; i < data.AckCount; i++ {
			ack := coherence.Msg{Type: coherence.MsgInvAck, Line: req.Line, Src: 1 + i}
			d.mail = append(d.mail, mailItem{d.cycle + 1 + uint64(d.rng.Intn(80)), ack})
		}
	}
	if d.rng.Bool(0.03) {
		ext := []coherence.MsgType{coherence.MsgInv, coherence.MsgFwdGetS, coherence.MsgFwdGetX}[d.rng.Intn(3)]
		d.mail = append(d.mail, mailItem{d.cycle + 1 + uint64(d.rng.Intn(10)),
			coherence.Msg{Type: ext, Line: d.line(), Src: 32, Requestor: 5}})
	}
}

// core issues up to two operations at the current cycle.
func (d *diffRun) core() {
	for n := d.rng.Intn(3); n > 0 && d.nextTag-uint64(d.realRec.resps) < 24; n-- {
		switch op := d.rng.Intn(100); {
		case op < 70:
			d.nextTag++
			tag, addr, write := d.nextTag, d.line()+uint64(d.rng.Intn(8))*8, d.rng.Bool(0.4)
			d.do("Access", func(c controller, _ int) { c.Access(tag, addr, write) })
		case op < 85:
			line := d.line()
			var res [2]bool
			d.do("StoreComplete", func(c controller, side int) { res[side] = c.StoreComplete(line) })
			if res[0] != res[1] {
				d.t.Fatalf("cycle %d: StoreComplete(%#x) = %v, want %v", d.cycle, line, res[0], res[1])
			}
		default:
			d.pfAddr += 64
			addr := d.pfAddr
			d.do("TrainPrefetch", func(c controller, _ int) { c.TrainPrefetch(0x400100, addr) })
		}
		d.directory()
	}
}

// visit is one cycle at which the run loop calls the controller: mail
// is delivered at the previous cycle's clock and followed by Tick, as
// both run loops do; otherwise Tick (due or not) or a core-only SetNow.
// The core then issues, if asked to.
func (d *diffRun) visit(issue bool) {
	var msgs [2][]coherence.Msg
	rest := d.mail[:0]
	for _, m := range d.mail {
		if m.at > d.cycle {
			rest = append(rest, m)
			continue
		}
		for side := range msgs {
			msgs[side] = append(msgs[side], m.msg)
		}
	}
	d.mail = rest
	due := d.real.NextEventAt(d.real.now) <= d.cycle
	switch {
	case len(msgs[0]) > 0:
		if d.rng.Bool(0.5) {
			d.do("SetNow", func(c controller, _ int) { c.SetNow(d.cycle - 1) })
		}
		d.do("Deliver", func(c controller, side int) { c.Deliver(msgs[side]) })
		d.directory()
		d.do("Tick", func(c controller, _ int) { c.Tick(d.cycle) })
	case due || d.rng.Bool(0.5):
		work := d.real.WorkDone()
		d.do("Tick", func(c controller, _ int) { c.Tick(d.cycle) })
		if !due && d.real.WorkDone() != work {
			// The schedulers' cross-check replays exactly this Tick.
			d.t.Fatalf("cycle %d: Tick did work on a cycle NextEventAt called idle", d.cycle)
		}
	default:
		d.do("SetNow", func(c controller, _ int) { c.SetNow(d.cycle) })
	}
	d.directory()
	if issue {
		d.core()
	}
}

// checkpoint snapshots the wheel controller, whose events must be the
// reference heap's in pop order, and restores it in place. The
// reference is not restored: what follows must still agree.
func (d *diffRun) checkpoint() {
	snap := d.real.Snapshot()
	var want []EventSnap
	for h := slices.Clone(d.ref.h); len(h) > 0; {
		e := h.popEvent()
		want = append(want, EventSnap{At: e.at, Kind: e.kind, Tag: e.tag, Line: e.line, Wr: e.wr, Lat: e.lat})
	}
	if !slices.Equal(snap.Events, want) {
		d.t.Fatalf("cycle %d: Snapshot().Events = %v, want the heap's %v", d.cycle, snap.Events, want)
	}
	d.real.Restore(snap)
	d.compare("Restore")
}

// quiet reports whether nothing falls due at the current cycle: no
// mail arrives and the controller has nothing to do.
func (d *diffRun) quiet() bool {
	for _, m := range d.mail {
		if m.at <= d.cycle {
			return false
		}
	}
	return d.real.NextEventAt(d.real.now) > d.cycle
}

func (d *diffRun) run(cycles uint64) {
	gap := uint64(0)
	for d.cycle = 1; d.cycle <= cycles; d.cycle++ {
		if gap == 0 && d.rng.Bool(0.04) {
			// Nobody is called for a while, as the run loop skips the
			// quiet cycles: by one cycle, by just under a wheel, by
			// more than a wheel, or until something falls due.
			gap = []uint64{1, slab.WheelSize - 1, slab.WheelSize + 1 + uint64(d.rng.Intn(8))}[d.rng.Intn(3)]
		}
		if gap > 0 && d.quiet() {
			gap--
			continue
		}
		gap = 0
		d.visit(true)
		if d.cycle%397 == 0 {
			d.checkpoint()
		}
	}
	// Drain: every access is answered and both sides fall idle.
	for end := d.cycle + 4000; d.real.PendingWork() || len(d.mail) > 0; d.cycle++ {
		if d.cycle > end {
			d.t.Fatalf("still busy at cycle %d: %v", d.cycle, d.real.DebugMSHRs())
		}
		d.visit(false)
	}
	if uint64(d.realRec.resps) != d.nextTag {
		d.t.Fatalf("%d of %d accesses answered", d.realRec.resps, d.nextTag)
	}
}

// TestDifferentialAgainstHeap compares the timing wheel with the binary
// heap it replaced, over seeded histories of accesses, store completions,
// prefetch training, fills, acks and external requests, with Ticks on
// time and idle, and cycles skipped while nothing falls due.
func TestDifferentialAgainstHeap(t *testing.T) {
	configs := []struct {
		name         string
		mshrs, l2Hit int
	}{
		{"mshrs0", 0, 12},
		{"mshrs1", 1, 12},
		{"mshrs2", 2, 12},
		{"mshrs16", 16, 12},
		{"mshrs2-l2hit15", 2, 15}, // the longest delay the wheel holds
		{"mshrs1-l2hit15", 1, 15},
	}
	var mshrFull uint64
	for _, c := range configs {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", c.name, seed), func(t *testing.T) {
				cfg := config.Default()
				cfg.Mem.MSHRs = c.mshrs
				cfg.Mem.L2.HitCycles = c.l2Hit
				d := newDiffRun(t, cfg, seed)
				d.run(4000)
				mshrFull += d.real.Stats.MSHRFull.Value()
			})
		}
	}
	if mshrFull < 1000 {
		t.Errorf("only %d parked misses across all histories", mshrFull)
	}
}
