package interconnect

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"rowsim/internal/coherence"
	"rowsim/internal/xrand"
)

// heapEvent is one in-flight message with its arrival time.
type heapEvent struct {
	at  uint64
	seq uint64 // tie-breaker preserving send order
	msg coherence.Msg
}

// eventHeap is the queue the mesh kept its messages in before the
// calendar: a typed binary min-heap ordered by (at, seq). It survives
// here as the reference the calendar is compared against.
type eventHeap []heapEvent

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(e heapEvent) {
	*h = append(*h, e)
	h.siftUp(len(*h) - 1)
}

func (h *eventHeap) pop() heapEvent {
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

// refMesh is the mesh as it was before the calendar: the heap for a
// queue. Everything else, the arrival cycle, fault perturbation and
// the per-channel clamp, is the real Mesh's code: after each send, the
// message it queued is moved out of its calendar into the heap, so its
// own Tick never finds one.
type refMesh struct {
	m *Mesh
	h eventHeap
}

func (r *refMesh) SendAfter(msg coherence.Msg, extra uint64) {
	r.m.SendAfter(msg, extra)
	r.m.cal.each(r.m.now, func(at uint64, e *event) { r.h.push(heapEvent{at, e.seq, e.msg}) })
	r.m.cal.reset()
}

func (r *refMesh) Tick(cycle uint64) {
	r.m.now = cycle
	for len(r.h) > 0 && r.h[0].at <= cycle {
		e := r.h.pop()
		r.m.inboxes[e.msg.Dst] = append(r.m.inboxes[e.msg.Dst], e.msg)
	}
}

func (r *refMesh) NextEventAt(now uint64) uint64 {
	if len(r.h) == 0 {
		return ^uint64(0)
	}
	if at := r.h[0].at; at > now {
		return at
	}
	return now + 1
}

func (r *refMesh) Idle() bool { return len(r.h) == 0 && r.m.Idle() }

func (r *refMesh) Deliverables(dst []Deliverable) []Deliverable {
	dst = dst[:0]
	if len(r.h) == 0 {
		return dst
	}
	heads := make([]int, r.m.nodes*r.m.nodes)
	for i := range heads {
		heads[i] = -1
	}
	for i := range r.h {
		ch := r.h[i].msg.Src*r.m.nodes + r.h[i].msg.Dst
		if heads[ch] < 0 || r.h[i].seq < r.h[heads[ch]].seq {
			heads[ch] = i
		}
	}
	for _, idx := range heads {
		if idx < 0 {
			continue
		}
		e := &r.h[idx]
		dst = append(dst, Deliverable{Seq: e.seq, Src: e.msg.Src, Dst: e.msg.Dst})
	}
	sort.Slice(dst, func(i, j int) bool { return dst[i].Seq < dst[j].Seq })
	return dst
}

func (r *refMesh) TakeSeq(seq uint64) (msg coherence.Msg, ok bool) {
	idx := -1
	for i := range r.h {
		if r.h[i].seq == seq {
			idx = i
			break
		}
	}
	if idx < 0 {
		return coherence.Msg{}, false
	}
	msg = r.h[idx].msg
	n := len(r.h) - 1
	r.h[idx] = r.h[n]
	r.h = r.h[:n]
	if idx < n {
		r.h.siftDown(idx)
		r.h.siftUp(idx)
	}
	return msg, true
}

func (r *refMesh) ForEachPending(fn func(seq uint64, msg coherence.Msg)) {
	idx := make([]int, len(r.h))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return r.h[idx[a]].seq < r.h[idx[b]].seq })
	for _, i := range idx {
		fn(r.h[i].seq, r.h[i].msg)
	}
}

// Snapshot is the heap mesh's snapshot: Events in heap-array order, as
// a checkpoint written before the calendar holds them.
func (r *refMesh) Snapshot() MeshSnap {
	s := r.m.Snapshot()
	s.Events = nil
	for _, e := range r.h {
		s.Events = append(s.Events, MeshEventSnap{At: e.at, Seq: e.seq, Msg: e.msg})
	}
	return s
}

// popOrder returns the heap's events in the order it delivers them.
func (r *refMesh) popOrder() []MeshEventSnap {
	var out []MeshEventSnap
	for h := slices.Clone(r.h); len(h) > 0; {
		e := h.pop()
		out = append(out, MeshEventSnap{At: e.at, Seq: e.seq, Msg: e.msg})
	}
	return out
}

// jitterDup is a fault injector for the differential runs: it delays
// some messages by up to 300 cycles, past the calendar's first horizon
// on top of a long send delay, and sends some twice.
type jitterDup struct {
	rng *xrand.RNG
	buf []uint64
}

func (p *jitterDup) Perturb(*coherence.Msg) []uint64 {
	p.buf = append(p.buf[:0], 0)
	if p.rng.Bool(0.3) {
		p.buf[0] = 1 + uint64(p.rng.Intn(300))
	}
	if p.rng.Bool(0.1) {
		p.buf = append(p.buf, p.buf[0]+uint64(p.rng.Intn(4)))
	}
	return p.buf
}

// meshDiff drives the calendar mesh and the heap reference through one
// stream of operations, read from ops, and compares all that can be
// observed of them after every call.
type meshDiff struct {
	t     testing.TB
	ops   []byte
	nodes int
	real  *Mesh
	ref   *refMesh
	cycle uint64

	// what the stream reached, for the test to check it is not vacuous
	grew, taken, restored, heapOrdered int
}

func newMeshDiff(t testing.TB, ops []byte) *meshDiff {
	d := &meshDiff{t: t, ops: ops, nodes: 16}
	d.real = NewMesh(d.nodes, 1, 2, 4)
	d.ref = &refMesh{m: NewMesh(d.nodes, 1, 2, 4)}
	if seed := d.byte(); seed%2 == 1 {
		d.real.SetPerturber(&jitterDup{rng: xrand.New(uint64(seed))})
		d.ref.m.SetPerturber(&jitterDup{rng: xrand.New(uint64(seed))})
	}
	return d
}

// byte reads the next operand from the stream, 0 once it is spent.
func (d *meshDiff) byte() byte {
	if len(d.ops) == 0 {
		return 0
	}
	b := d.ops[0]
	d.ops = d.ops[1:]
	return b
}

func (d *meshDiff) run() {
	for len(d.ops) > 0 {
		switch op := d.byte() % 16; {
		case op < 7:
			d.send()
		case op < 10:
			d.tick(d.cycle + 1)
		case op == 10:
			// Skip ahead as the run loop does: to the next arrival or
			// by up to 300 cycles, whichever the stream picks.
			if b := d.byte(); b < 128 && !d.real.Idle() {
				d.tick(max(d.cycle+1, min(d.real.NextEventAt(d.cycle), d.cycle+1000)))
			} else {
				d.tick(d.cycle + 1 + uint64(b)%300)
			}
		case op == 11:
			d.tick(d.cycle + 257 + uint64(d.byte())*4)
		case op == 12:
			n := int(d.byte()) % d.nodes
			got, want := d.real.Drain(n), d.ref.m.Drain(n)
			if !slices.Equal(got, want) {
				d.t.Fatalf("cycle %d: Drain(%d) = %v, want %v", d.cycle, n, got, want)
			}
			d.compare("Drain")
		case op == 13:
			d.takeSeq()
		case op == 14:
			d.checkpoint()
		default:
			for n := range d.nodes {
				d.real.Drain(n)
				d.ref.m.Drain(n)
			}
			d.compare("Drain all")
		}
	}
}

// send sends one message on both sides: from 0 to 15 cycles late,
// so that arrivals tie, or from 0 to 1,000, past the horizon.
func (d *meshDiff) send() {
	src, dst, line := int(d.byte())%d.nodes, int(d.byte())%d.nodes, uint64(d.byte())*64
	var extra uint64
	if b := d.byte(); b < 160 {
		extra = uint64(b % 16)
	} else {
		extra = (uint64(d.byte())<<8 | uint64(d.byte())) % 1001
	}
	msg := coherence.Msg{Type: coherence.MsgType(line/64) % coherence.MsgType(8), Src: src, Dst: dst, Line: line}
	size := len(d.real.cal.buckets)
	d.real.SendAfter(msg, extra)
	d.ref.SendAfter(msg, extra)
	if len(d.real.cal.buckets) > size {
		d.grew++
	}
	d.compare(fmt.Sprintf("SendAfter(%s, %d)", msg, extra))
}

func (d *meshDiff) tick(cycle uint64) {
	d.cycle = cycle
	d.real.Tick(cycle)
	d.ref.Tick(cycle)
	d.compare("Tick")
}

// takeSeq takes one message out of band, as the model checker does: a
// channel head, or a send number that may name nothing queued.
func (d *meshDiff) takeSeq() {
	seq := uint64(d.byte())
	if heads := d.real.Deliverables(nil); len(heads) > 0 && seq < 192 {
		seq = heads[int(seq)%len(heads)].Seq
	}
	got, gok := d.real.TakeSeq(seq)
	want, wok := d.ref.TakeSeq(seq)
	if got != want || gok != wok {
		d.t.Fatalf("cycle %d: TakeSeq(%d) = %v, %v; want %v, %v", d.cycle, seq, got, gok, want, wok)
	}
	if gok {
		d.taken++
	}
	d.compare("TakeSeq")
}

// checkpoint snapshots the calendar mesh, whose events must be the
// heap's in pop order, and restores it, in place or into a new mesh
// (which starts from a 256-bucket calendar), from that snapshot or from
// the heap's, whose events are in heap-array order as an older build
// wrote them. The reference is not restored: what follows must still
// agree.
func (d *meshDiff) checkpoint() {
	snap := d.real.Snapshot()
	if want := d.ref.popOrder(); !slices.Equal(snap.Events, want) {
		d.t.Fatalf("cycle %d: Snapshot().Events = %v, want the heap's %v", d.cycle, snap.Events, want)
	}
	b := d.byte()
	if b&1 == 1 {
		snap = d.ref.Snapshot()
		d.heapOrdered++
	}
	if b&2 == 2 {
		fresh := NewMesh(d.nodes, 1, 2, 4)
		if d.real.perturb != nil {
			fresh.SetPerturber(d.real.perturb)
		}
		d.real = fresh
	}
	d.real.Restore(snap)
	d.restored++
	d.compare("Restore")
}

func (d *meshDiff) compare(what string) {
	d.t.Helper()
	fail := func(format string, args ...any) {
		d.t.Helper()
		d.t.Fatalf("cycle %d, after %s: %s", d.cycle, what, fmt.Sprintf(format, args...))
	}
	for n := range d.nodes {
		if got, want := d.real.inboxes[n], d.ref.m.inboxes[n]; !slices.Equal(got, want) {
			fail("inbox %d holds %v, want %v", n, got, want)
		}
	}
	if g, w := d.real.NextEventAt(d.cycle), d.ref.NextEventAt(d.cycle); g != w {
		fail("NextEventAt(%d) = %d, want %d", d.cycle, g, w)
	}
	if g, w := d.real.Idle(), d.ref.Idle(); g != w {
		fail("Idle = %v, want %v", g, w)
	}
	if g, w := d.real.Deliverables(nil), d.ref.Deliverables(nil); !slices.Equal(g, w) {
		fail("Deliverables = %v, want %v", g, w)
	}
	if g, w := pending(d.real.ForEachPending), pending(d.ref.ForEachPending); !reflect.DeepEqual(g, w) {
		fail("ForEachPending = %v, want %v", g, w)
	}
	if g, w := d.real.Messages(), d.ref.m.Messages(); g != w {
		fail("Messages = %d, want %d", g, w)
	}
}

func pending(each func(func(uint64, coherence.Msg))) []MeshEventSnap {
	var out []MeshEventSnap
	each(func(seq uint64, msg coherence.Msg) { out = append(out, MeshEventSnap{Seq: seq, Msg: msg}) })
	return out
}

// diffOps is a seeded operation stream for meshDiff.
func diffOps(seed uint64, n int) []byte {
	rng := xrand.New(seed)
	ops := make([]byte, n)
	for i := range ops {
		ops[i] = byte(rng.Uint64())
	}
	ops[0] = byte(seed) // odd seeds perturb
	return ops
}

// TestMeshAgainstHeap: through sends due from 0 to 1,000 cycles ahead,
// ties within a cycle, duplication and jitter, Ticks that skip ahead,
// out-of-band TakeSeq and Snapshot→Restore mid-stream, the calendar
// delivers what the binary heap did, when it did, in its order, and
// answers NextEventAt, Idle, Deliverables and ForEachPending as it did.
func TestMeshAgainstHeap(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		d := newMeshDiff(t, diffOps(seed, 30000))
		d.run()
		if d.grew == 0 || d.taken == 0 || d.restored == 0 || d.heapOrdered == 0 {
			t.Fatalf("seed %d: the stream grew the calendar %d times, took %d messages out of band and restored %d snapshots (%d heap-ordered); want each",
				seed, d.grew, d.taken, d.restored, d.heapOrdered)
		}
	}
}

// FuzzMeshAgainstHeap runs the same comparison on any operation stream.
func FuzzMeshAgainstHeap(f *testing.F) {
	for seed := uint64(1); seed <= 4; seed++ {
		f.Add(diffOps(seed, 2000))
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 8192 {
			ops = ops[:8192]
		}
		newMeshDiff(t, ops).run()
	})
}

// TestRestoreHeapOrderedEvents: a checkpoint written by the heap mesh
// lists its events in heap-array order. Restored into a calendar mesh,
// they are delivered as the heap would have delivered them, and the
// snapshot itself is left as it was, since warm images share theirs.
func TestRestoreHeapOrderedEvents(t *testing.T) {
	ref := &refMesh{m: NewMesh(16, 1, 2, 4)}
	ref.Tick(100)
	rng := xrand.New(3)
	for i := range 200 {
		extra := uint64(rng.Intn(8)) // ties in plenty
		if i%5 == 0 {
			extra = uint64(rng.Intn(700)) // past the first horizon
		}
		ref.SendAfter(coherence.Msg{Type: coherence.MsgData, Src: rng.Intn(16), Dst: rng.Intn(16), Line: uint64(i) * 64}, extra)
	}
	snap := ref.Snapshot()
	if slices.Equal(snap.Events, ref.popOrder()) {
		t.Fatal("the heap's array is in delivery order; the test needs one that is not")
	}
	events := slices.Clone(snap.Events)

	m := NewMesh(16, 1, 2, 4)
	m.Restore(snap)
	if !slices.Equal(snap.Events, events) {
		t.Fatal("Restore reordered the snapshot it was given")
	}
	if got := m.Snapshot().Events; !slices.Equal(got, ref.popOrder()) {
		t.Fatalf("restored calendar holds %v, want the heap's delivery order %v", got, ref.popOrder())
	}
	for cycle := uint64(101); !ref.Idle(); cycle++ {
		m.Tick(cycle)
		ref.Tick(cycle)
		for n := range 16 {
			if got, want := m.Drain(n), ref.m.Drain(n); !slices.Equal(got, want) {
				t.Fatalf("cycle %d: node %d receives %v, want %v", cycle, n, got, want)
			}
		}
	}
	if !m.Idle() {
		t.Fatal("the calendar holds messages the heap delivered")
	}
}

// TestRestoreRefusesImpossibleEvents: an event due by the snapshot's
// cycle, past maxDelay or addressed to a node the mesh lacks cannot
// have come from a mesh of this size; Restore panics on it, which
// sim.RestoreSnap turns into an error.
func TestRestoreRefusesImpossibleEvents(t *testing.T) {
	for _, e := range []MeshEventSnap{
		{At: 50, Seq: 1, Msg: coherence.Msg{Dst: 1}},
		{At: 100 + maxDelay + 1, Seq: 1, Msg: coherence.Msg{Dst: 1}},
		{At: 120, Seq: 1, Msg: coherence.Msg{Dst: 16}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Restore took %+v at cycle 100", e)
				}
			}()
			NewMesh(16, 1, 2, 4).Restore(MeshSnap{Now: 100, Events: []MeshEventSnap{e}})
		}()
	}
}
