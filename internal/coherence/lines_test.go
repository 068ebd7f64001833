package coherence

import (
	"reflect"
	"testing"
	"unsafe"

	"rowsim/internal/xrand"
)

func TestDirEntryFits32Bytes(t *testing.T) {
	if size := unsafe.Sizeof(dirEntry{}); size > 32 {
		t.Fatalf("dirEntry is %d bytes, want at most 32", size)
	}
}

// TestLineTableMatchesMap drives a line table and a map with the same
// seeded mix of get and find calls, from empty and from a table sized
// for a Restore. Thousands of lines, all in one bank's stride, carry
// both across many index doublings and chunk boundaries; every entry
// handed out must still be the line's entry after all of them.
func TestLineTableMatchesMap(t *testing.T) {
	for _, presized := range []int{0, 37} {
		rng := xrand.New(uint64(1 + presized))
		tab := newLineTable(presized)
		ref := make(map[uint64]dirEntry)
		held := make(map[uint64]*dirEntry)
		for i := 0; i < presized; i++ {
			line := uint64(i) * 64 * 8
			e := tab.add(line, presized-i)
			e.sharers = uint64(i)
			ref[line], held[line] = *e, e
		}
		for step := 0; step < 20000; step++ {
			line := uint64(rng.Intn(6000)) * 64 * 8 // bank 0 of 8
			if rng.Bool(0.5) {
				e, want := tab.find(line), ref[line]
				if _, ok := ref[line]; (e != nil) != ok || ok && *e != want {
					t.Fatalf("presized %d, step %d: find(%#x) = %v, want %+v (present %v)", presized, step, line, e, want, ok)
				}
				continue
			}
			e := tab.get(line)
			want, ok := ref[line]
			if !ok {
				want = dirEntry{line: line, owner: -1}
			}
			if *e != want {
				t.Fatalf("presized %d, step %d: get(%#x) = %+v, want %+v", presized, step, line, *e, want)
			}
			e.sharers = rng.Uint64()
			ref[line], held[line] = *e, e
		}
		if tab.n != len(ref) {
			t.Fatalf("presized %d: table holds %d entries, map %d", presized, tab.n, len(ref))
		}
		if len(tab.chunks) < 5 || len(tab.index) < 2*len(ref) {
			t.Fatalf("presized %d: %d chunks and %d index slots for %d lines; the walk crossed too little", presized, len(tab.chunks), len(tab.index), len(ref))
		}
		for line, e := range held {
			if tab.find(line) != e || *e != ref[line] {
				t.Fatalf("presized %d: entry of %#x moved or changed", presized, line)
			}
		}
	}
}

// busyBank plays a bank into a state with every kind of transaction
// open: a line blocked on a read with a GetX and a PutX queued behind
// it, a far RMW awaiting invalidation acks with a GetS queued, a far
// RMW awaiting the owner's data, and idle lines in M and S.
func busyBank(t *testing.T) *Directory {
	t.Helper()
	d, _ := newDirUnderTest()
	d.SetMsgPool(&MsgPool{})
	msg := func(typ MsgType, line uint64, src int, g GrantState) {
		d.Handle(d.pool.New(Msg{Type: typ, Line: line, Src: src, Dst: 32, Requestor: src, Grant: g}))
	}
	const a, b, c, m, s = 0x1000, 0x2000, 0x3000, 0x4000, 0x5000
	msg(MsgGetX, m, 4, 0)
	msg(MsgUnblockX, m, 4, 0)
	msg(MsgGetS, s, 1, 0)
	msg(MsgUnblock, s, 1, GrantE)
	msg(MsgGetS, s, 2, 0)
	msg(MsgUnblock, s, 2, GrantS)
	msg(MsgGetS, a, 1, 0) // blocked awaiting core 1's Unblock
	msg(MsgGetX, a, 2, 0)
	msg(MsgPutX, a, 3, 0)
	for core := 0; core < 3; core++ { // b shared by cores 0..2
		msg(MsgGetS, b, core, 0)
		msg(MsgUnblock, b, core, GrantS)
	}
	msg(MsgGetFar, b, 5, 0)
	msg(MsgInvAck, b, 0, 0) // two acks still missing
	msg(MsgGetS, b, 6, 0)
	msg(MsgGetX, c, 7, 0)
	msg(MsgUnblockX, c, 7, 0)
	msg(MsgGetFar, c, 5, 0) // recalling core 7's copy
	if got := d.RetainedMsgs(); got != 3 {
		t.Fatalf("busy bank retains %d requests, want 3", got)
	}
	return d
}

// TestSnapshotRestoreRoundTrip: a bank restored from a snapshot of a
// busy bank snapshots equal to it, and the two then answer the same
// messages alike.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	d := busyBank(t)
	snap := d.Snapshot()
	if len(snap.Busy) != 3 {
		t.Fatalf("%d busy entries in the snapshot, want 3", len(snap.Busy))
	}
	r, rnet := newDirUnderTest()
	r.SetMsgPool(&MsgPool{})
	r.WarmOwned(0x9000, 3) // state the restore must replace
	r.Handle(getS(1))
	r.Restore(snap)
	if got := r.Snapshot(); !reflect.DeepEqual(got, snap) {
		t.Fatalf("snapshot after restore differs:\n got %+v\nwant %+v", got, snap)
	}
	if !r.PendingWork() || r.RetainedMsgs() != 3 {
		t.Fatalf("restored bank: pending %v, retained %d; want true, 3", r.PendingWork(), r.RetainedMsgs())
	}

	dnet := d.net.(*fakeNet)
	dnet.take()
	rnet.take()
	for _, m := range []Msg{
		{Type: MsgUnblock, Line: 0x1000, Src: 1, Requestor: 1, Grant: GrantE}, // serves the queued GetX, drops the PutX later
		{Type: MsgInvAck, Line: 0x2000, Src: 1},
		{Type: MsgInvAck, Line: 0x2000, Src: 2}, // far RMW done; the queued GetS is served
		{Type: MsgData, Line: 0x3000, Src: 7},
		{Type: MsgUnblockX, Line: 0x1000, Src: 2, Requestor: 2},
		{Type: MsgUnblock, Line: 0x2000, Src: 6, Requestor: 6, Grant: GrantE},
	} {
		m.Dst = 32
		d.Handle(d.pool.New(m))
		r.Handle(r.pool.New(m))
	}
	if got, want := rnet.take(), dnet.take(); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored bank answered differently:\n got %v\nwant %v", got, want)
	}
	if !reflect.DeepEqual(r.Snapshot(), d.Snapshot()) || d.PendingWork() || r.PendingWork() {
		t.Fatal("banks diverged, or kept pending work, after the same messages")
	}
}

// TestRestoreRejectsForeignSnap: a DirSnap no bank can have produced
// fails loudly instead of losing an entry or planting a core number
// that the run would later blame on the protocol.
func TestRestoreRejectsForeignSnap(t *testing.T) {
	for name, spoil := range map[string]func(*DirSnap){
		"columns of unequal length": func(s *DirSnap) { s.Owner = s.Owner[:1] },
		"duplicate line":            func(s *DirSnap) { s.Line[1] = s.Line[0] },
		"lines out of order":        func(s *DirSnap) { s.Line[0], s.Line[1] = s.Line[1], s.Line[0] },
		"owner past 63":             func(s *DirSnap) { s.Owner[0] = 1000 },
		"owner below -1":            func(s *DirSnap) { s.Owner[0] = -2 },
		"requestor past 63":         func(s *DirSnap) { s.Busy[0].Pend.Requestor = 64 },
		"ack count past 64":         func(s *DirSnap) { s.Busy[0].Pend.FarAcks = 65 },
		"negative ack count":        func(s *DirSnap) { s.Busy[0].Pend.FarAcks = -1 },
		"busy entry out of range":   func(s *DirSnap) { s.Busy[0].Index = len(s.Line) },
		"busy entries out of order": func(s *DirSnap) { s.Busy[0].Index = s.Busy[1].Index },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Restore did not panic", name)
				}
			}()
			snap := busyBank(t).Snapshot()
			spoil(snap)
			d, _ := newDirUnderTest()
			d.Restore(snap)
		}()
	}
	d, _ := newDirUnderTest()
	snap := busyBank(t).Snapshot()
	snap.Owner[0], snap.Busy[0].Pend.Requestor, snap.Busy[0].Pend.FarAcks = 63, 63, 64
	d.Restore(snap)
	if e, ok := d.EntryView(snap.Line[0]); !ok || e.Owner != 63 {
		t.Fatalf("well-formed snapshot was not restored: %+v, %v", e, ok)
	}
}

// poolNet hands every message straight back to the pool: a network
// that allocates nothing, for the allocation test.
type poolNet struct{ pool *MsgPool }

func (n poolNet) Send(m *Msg)                { n.pool.Put(m) }
func (n poolNet) SendAfter(m *Msg, _ uint64) { n.pool.Put(m) }

// TestDirectorySteadyStateAllocsZero: once a bank knows its lines and
// has grown its queues, none of its three paths allocates — serving a
// request for a known line, queueing requests behind a blocked line,
// and draining the queue when the line unblocks.
func TestDirectorySteadyStateAllocsZero(t *testing.T) {
	pool := &MsgPool{}
	d := NewDirectory(32, 0, poolNet{pool}, 64<<10, 16, 64, 35, 160)
	d.SetMsgPool(pool)
	var line uint64
	msg := func(typ MsgType, core int, g GrantState) {
		d.Handle(pool.New(Msg{Type: typ, Line: line, Src: core, Dst: 32, Requestor: core, Grant: g}))
	}
	// Each path walks the same 512 lines; at most 256 are open at once.
	var served, opened, closed int
	serve := func() {
		line = uint64(served%512) * 64
		served++
		msg(MsgGetX, 0, 0)
		msg(MsgUnblockX, 0, 0)
	}
	open := func() {
		line = uint64(opened%512) * 64
		opened++
		msg(MsgGetS, 1, 0) // blocks the line
		msg(MsgGetX, 2, 0)
		msg(MsgGetS, 3, 0)
		msg(MsgPutX, 0, 0)
	}
	drain := func() {
		line = uint64(closed%512) * 64
		closed++
		msg(MsgUnblock, 1, GrantE) // serves the GetX, which blocks again
		msg(MsgUnblockX, 2, 0)     // serves the GetS, which blocks again
		msg(MsgUnblock, 3, GrantS) // drops the stale PutX; the queue goes back
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 256; j++ {
			open()
		}
		for j := 0; j < 256; j++ {
			drain()
		}
	}
	for _, path := range []struct {
		name string
		run  func()
	}{
		{"known line", serve},
		{"queued behind a blocked line", open}, // 201 lines left open
		{"queue drained on Unblock", drain},    // and closed in order
	} {
		if allocs := testing.AllocsPerRun(200, path.run); allocs != 0 {
			t.Errorf("%s: %v allocs per run, want 0", path.name, allocs)
		}
	}
	if d.PendingWork() || pool.Outstanding() != 0 {
		t.Fatalf("pending %v, %d messages outstanding after the rounds", d.PendingWork(), pool.Outstanding())
	}
}
