package coherence

import (
	"strings"
	"testing"
)

// fakeNet records sent messages with their extra (source-side) delay.
type fakeNet struct {
	sent  []Msg
	extra []uint64
}

func (f *fakeNet) Send(m Msg) { f.SendAfter(m, 0) }
func (f *fakeNet) SendAfter(m Msg, extra uint64) {
	f.sent = append(f.sent, m)
	f.extra = append(f.extra, extra)
}

func (f *fakeNet) take() []Msg {
	s := f.sent
	f.sent = nil
	f.extra = nil
	return s
}

func newDirUnderTest() (*Directory, *fakeNet) {
	net := &fakeNet{}
	// node 32, bank 0; small L3 (64 KiB, 16 ways); 35-cycle L3,
	// 160-cycle DRAM.
	d := NewDirectory(32, 0, net, 64<<10, 16, 64, 35, 160)
	return d, net
}

const lineA = uint64(0x1000)

func getS(from int) Msg {
	return Msg{Type: MsgGetS, Line: lineA, Src: from, Dst: 32, Requestor: from}
}
func getX(from int) Msg {
	return Msg{Type: MsgGetX, Line: lineA, Src: from, Dst: 32, Requestor: from}
}
func unblock(from int, grant GrantState) Msg {
	return Msg{Type: MsgUnblock, Line: lineA, Src: from, Dst: 32, Requestor: from, Grant: grant}
}
func unblockX(from int) Msg {
	return Msg{Type: MsgUnblockX, Line: lineA, Src: from, Dst: 32, Requestor: from}
}

func TestGetSOnInvalidGrantsExclusive(t *testing.T) {
	d, net := newDirUnderTest()
	d.Handle(getS(3))
	sent := net.take()
	if len(sent) != 1 {
		t.Fatalf("sent %d messages, want 1", len(sent))
	}
	m := sent[0]
	if m.Type != MsgData || m.Dst != 3 || m.Grant != GrantE || m.FromPrivate {
		t.Fatalf("unexpected response %v", m)
	}
}

func TestColdMissPaysDRAM(t *testing.T) {
	d, net := newDirUnderTest()
	d.Handle(getS(0))
	if got := net.extra[0]; got != 35+160 {
		t.Fatalf("cold fill delay = %d, want 195", got)
	}
	d.Handle(unblock(0, GrantE))
	// The line is now in L3: a later fill (after the owner writes
	// back) pays only the L3 hit.
	d.Handle(Msg{Type: MsgPutX, Line: lineA, Src: 0, Dst: 32})
	net.take()
	d.Handle(getS(1))
	if got := net.extra[len(net.extra)-1]; got != 35 {
		t.Fatalf("warm fill delay = %d, want 35", got)
	}
}

func TestExclusiveOwnerGetsForwardedRead(t *testing.T) {
	d, net := newDirUnderTest()
	d.Handle(getS(0))
	net.take()
	d.Handle(unblock(0, GrantE)) // dir records owner 0 (E treated as M)
	d.Handle(getS(1))
	sent := net.take()
	if len(sent) != 1 || sent[0].Type != MsgFwdGetS || sent[0].Dst != 0 || sent[0].Requestor != 1 {
		t.Fatalf("expected FwdGetS to owner 0 for requestor 1, got %v", sent)
	}
	// After the read transaction closes, both cores are sharers: a
	// write by core 2 invalidates both.
	d.Handle(unblock(1, GrantS))
	d.Handle(getX(2))
	sent = net.take()
	invs := 0
	var data *Msg
	for _, m := range sent {
		switch m.Type {
		case MsgInv:
			invs++
			if m.Dst != 0 && m.Dst != 1 {
				t.Fatalf("Inv to unexpected core %d", m.Dst)
			}
			if m.Requestor != 2 {
				t.Fatalf("Inv requestor = %d, want 2", m.Requestor)
			}
		case MsgData:
			data = &m
		}
	}
	if invs != 2 {
		t.Fatalf("%d invalidations, want 2", invs)
	}
	if data == nil || data.AckCount != 2 || data.Grant != GrantM {
		t.Fatalf("bad data response %v", data)
	}
}

func TestWriteWriteForward(t *testing.T) {
	d, net := newDirUnderTest()
	d.Handle(getX(0))
	net.take()
	d.Handle(unblockX(0))
	d.Handle(getX(1))
	sent := net.take()
	if len(sent) != 1 || sent[0].Type != MsgFwdGetX || sent[0].Dst != 0 || sent[0].Requestor != 1 {
		t.Fatalf("expected FwdGetX to owner, got %v", sent)
	}
}

func TestBlockingSerializesRequests(t *testing.T) {
	d, net := newDirUnderTest()
	d.Handle(getX(0))
	net.take()
	// Second and third requests arrive while blocked: queued, nothing sent.
	d.Handle(getX(1))
	d.Handle(getX(2))
	if len(net.take()) != 0 {
		t.Fatal("blocked directory must not respond")
	}
	if d.Stats.Stalled.Value() != 2 {
		t.Fatalf("stalled = %d, want 2", d.Stats.Stalled.Value())
	}
	// Closing the first transaction serves exactly the next one.
	d.Handle(unblockX(0))
	sent := net.take()
	if len(sent) != 1 || sent[0].Type != MsgFwdGetX || sent[0].Dst != 0 || sent[0].Requestor != 1 {
		t.Fatalf("expected queued GetX(1) served via FwdGetX, got %v", sent)
	}
	// Still blocked for core 2.
	d.Handle(unblockX(1))
	sent = net.take()
	if len(sent) != 1 || sent[0].Type != MsgFwdGetX || sent[0].Dst != 1 || sent[0].Requestor != 2 {
		t.Fatalf("expected queued GetX(2) served next, got %v", sent)
	}
}

func TestStalePutXDropped(t *testing.T) {
	d, net := newDirUnderTest()
	d.Handle(getX(0))
	net.take()
	d.Handle(unblockX(0))
	// Ownership moves to core 1.
	d.Handle(getX(1))
	net.take()
	d.Handle(unblockX(1))
	// Core 0's late writeback must not clobber core 1's ownership.
	d.Handle(Msg{Type: MsgPutX, Line: lineA, Src: 0, Dst: 32})
	d.Handle(getS(2))
	sent := net.take()
	if len(sent) != 1 || sent[0].Type != MsgFwdGetS || sent[0].Dst != 1 {
		t.Fatalf("stale PutX corrupted ownership: %v", sent)
	}
}

func TestOwnerReRequestAfterSilentEviction(t *testing.T) {
	d, net := newDirUnderTest()
	d.Handle(getS(0))
	net.take()
	d.Handle(unblock(0, GrantE))
	// Core 0 silently dropped its E copy and asks again.
	d.Handle(getX(0))
	sent := net.take()
	if len(sent) != 1 || sent[0].Type != MsgData || sent[0].Dst != 0 || sent[0].Grant != GrantM {
		t.Fatalf("expected a data re-grant, got %v", sent)
	}
	if sent[0].AckCount != 0 {
		t.Fatalf("re-grant acks = %d, want 0", sent[0].AckCount)
	}
}

func TestPutXWhileBlockedIsQueuedThenDropped(t *testing.T) {
	d, net := newDirUnderTest()
	d.Handle(getX(0))
	net.take()
	d.Handle(unblockX(0))
	// Core 1 requests; dir forwards to core 0 and blocks.
	d.Handle(getX(1))
	net.take()
	// Core 0's eviction writeback races with the forward: queued.
	d.Handle(Msg{Type: MsgPutX, Line: lineA, Src: 0, Dst: 32})
	d.Handle(unblockX(1))
	// After unblocking, the stale PutX is processed and dropped;
	// core 1 must remain the owner.
	d.Handle(getS(2))
	sent := net.take()
	if len(sent) != 1 || sent[0].Type != MsgFwdGetS || sent[0].Dst != 1 {
		t.Fatalf("queued stale PutX corrupted state: %v", sent)
	}
}

func TestPendingWork(t *testing.T) {
	d, _ := newDirUnderTest()
	if d.PendingWork() {
		t.Fatal("fresh directory has pending work")
	}
	d.Handle(getS(0))
	if !d.PendingWork() {
		t.Fatal("blocked directory must report pending work")
	}
	d.Handle(unblock(0, GrantE))
	if d.PendingWork() {
		t.Fatal("closed transaction still pending")
	}
}

func TestWarmOwned(t *testing.T) {
	d, net := newDirUnderTest()
	d.WarmOwned(lineA, 5)
	d.Handle(getS(1))
	sent := net.take()
	if len(sent) != 1 || sent[0].Type != MsgFwdGetS || sent[0].Dst != 5 {
		t.Fatalf("warm ownership not honoured: %v", sent)
	}
}

func TestWarmL3(t *testing.T) {
	d, net := newDirUnderTest()
	d.WarmL3(lineA)
	d.Handle(getS(0))
	if got := net.extra[0]; got != 35 {
		t.Fatalf("warm L3 fill delay = %d, want 35", got)
	}
}

func TestStatsCounting(t *testing.T) {
	d, net := newDirUnderTest()
	d.Handle(getS(0))
	net.take()
	d.Handle(unblock(0, GrantE))
	d.Handle(getX(1))
	net.take()
	d.Handle(unblockX(1))
	if d.Stats.GetS.Value() != 1 || d.Stats.GetX.Value() != 1 {
		t.Fatalf("GetS/GetX = %d/%d, want 1/1", d.Stats.GetS.Value(), d.Stats.GetX.Value())
	}
	if d.Stats.Forwards.Value() != 1 {
		t.Fatalf("forwards = %d, want 1", d.Stats.Forwards.Value())
	}
}

// Near-miss scenarios: each case drives the directory to the edge of a
// state the model checker (internal/mcheck) proved reachable, where one
// wrong transition would corrupt the protocol, and pins the correct
// behaviour. The steps closure plays the scenario; check inspects the
// tail of the message stream (and the error sink, where the correct
// behaviour IS the diagnostic).
func TestNearMissScenarios(t *testing.T) {
	cases := []struct {
		name  string
		steps func(d *Directory, net *fakeNet)
		check func(t *testing.T, d *Directory, sent []Msg, sink *ErrorSink)
	}{
		{
			// A read arriving during another core's write transaction
			// must wait for the UnblockX, then be forwarded to the new
			// owner — serving it early would hand out data the writer
			// is about to clobber.
			name: "gets-while-blocked-queued",
			steps: func(d *Directory, net *fakeNet) {
				d.Handle(getX(0))
				net.take()
				d.Handle(getS(1))
				if len(net.take()) != 0 {
					t.Fatal("GetS served during a blocked write transaction")
				}
				d.Handle(unblockX(0))
			},
			check: func(t *testing.T, d *Directory, sent []Msg, sink *ErrorSink) {
				if len(sent) != 1 || sent[0].Type != MsgFwdGetS || sent[0].Dst != 0 || sent[0].Requestor != 1 {
					t.Fatalf("queued GetS not forwarded to the new owner: %v", sent)
				}
			},
		},
		{
			// The recorded owner re-requesting exclusively after a
			// silent clean eviction must be re-supplied from the L3 —
			// forwarding to itself would deadlock the transaction.
			name: "getx-from-owner-resupplied",
			steps: func(d *Directory, net *fakeNet) {
				d.Handle(getX(2))
				net.take()
				d.Handle(unblockX(2))
				d.Handle(getX(2))
			},
			check: func(t *testing.T, d *Directory, sent []Msg, sink *ErrorSink) {
				if len(sent) != 1 || sent[0].Type != MsgData || sent[0].Dst != 2 || sent[0].Grant != GrantM {
					t.Fatalf("owner re-request not re-supplied: %v", sent)
				}
			},
		},
		{
			// A sharer upgrading must invalidate every OTHER sharer and
			// never itself; the ack count must match the Inv fan-out.
			name: "upgrade-skips-requestor",
			steps: func(d *Directory, net *fakeNet) {
				d.Handle(getS(0))
				net.take()
				d.Handle(unblock(0, GrantS))
				d.Handle(getS(1))
				net.take()
				d.Handle(unblock(1, GrantS))
				d.Handle(getX(1))
			},
			check: func(t *testing.T, d *Directory, sent []Msg, sink *ErrorSink) {
				var invs, data []Msg
				for _, m := range sent {
					switch m.Type {
					case MsgInv:
						invs = append(invs, m)
					case MsgData:
						data = append(data, m)
					}
				}
				if len(invs) != 1 || invs[0].Dst != 0 {
					t.Fatalf("upgrade invalidations wrong: %v", sent)
				}
				if len(data) != 1 || data[0].AckCount != 1 {
					t.Fatalf("upgrade grant acks wrong: %v", sent)
				}
			},
		},
		{
			// A writeback from a core that is no longer the owner must
			// be dropped without touching the entry (the line moved on
			// while the PutX was in flight).
			name: "stale-putx-ignored-in-shared",
			steps: func(d *Directory, net *fakeNet) {
				d.Handle(getX(0))
				net.take()
				d.Handle(unblockX(0))
				d.Handle(getS(1))
				net.take()
				d.Handle(unblock(1, GrantS)) // M owner downgraded: dirS {0,1}
				d.Handle(Msg{Type: MsgPutX, Line: lineA, Src: 0, Dst: 32})
				d.Handle(getS(2))
			},
			check: func(t *testing.T, d *Directory, sent []Msg, sink *ErrorSink) {
				if len(sent) != 1 || sent[0].Type != MsgData || sent[0].Grant != GrantS {
					t.Fatalf("stale PutX in dirS corrupted the entry: %v", sent)
				}
			},
		},
		{
			// An Unblock from a core that is not the pending requestor
			// is a protocol violation and must be diagnosed, not
			// absorbed into the wrong transaction.
			name: "unblock-from-wrong-core-diagnosed",
			steps: func(d *Directory, net *fakeNet) {
				d.Handle(getX(0))
				net.take()
				d.Handle(unblockX(3))
			},
			check: func(t *testing.T, d *Directory, sent []Msg, sink *ErrorSink) {
				e := sink.Err()
				if e == nil {
					t.Fatal("wrong-core Unblock accepted silently")
				}
				if !strings.Contains(e.Reason, "pending requestor") {
					t.Fatalf("unexpected diagnosis: %v", e)
				}
			},
		},
		{
			// An Unblock with no transaction in flight is equally fatal.
			name: "unblock-without-transaction-diagnosed",
			steps: func(d *Directory, net *fakeNet) {
				d.Handle(unblockX(0))
			},
			check: func(t *testing.T, d *Directory, sent []Msg, sink *ErrorSink) {
				if sink.Err() == nil {
					t.Fatal("stray Unblock accepted silently")
				}
			},
		},
		{
			// InvAcks travel to the requestor core, and no bank is one,
			// so an InvAck at a bank is diagnosed even while a write
			// transaction on its line is open.
			name: "invack-at-bank-diagnosed",
			steps: func(d *Directory, net *fakeNet) {
				d.Handle(getX(3))
				net.take()
				d.Handle(Msg{Type: MsgInvAck, Line: lineA, Src: 1, Dst: 32, Requestor: 3})
			},
			check: func(t *testing.T, d *Directory, sent []Msg, sink *ErrorSink) {
				e := sink.Err()
				if e == nil || e.Reason != "unexpected message type" || e.Line != lineA {
					t.Fatalf("InvAck at a bank: %v", e)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, net := newDirUnderTest()
			sink := &ErrorSink{}
			d.SetErrorSink(sink)
			tc.steps(d, net)
			tc.check(t, d, net.take(), sink)
		})
	}
}
