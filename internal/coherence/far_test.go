package coherence

import "testing"

func getFar(from int) Msg {
	return Msg{Type: MsgGetFar, Line: lineA, Src: from, Dst: 32, Requestor: from}
}

func TestFarOnInvalidAnswersDirectly(t *testing.T) {
	d, net := newDirUnderTest()
	d.Handle(getFar(3))
	sent := net.take()
	if len(sent) != 1 || sent[0].Type != MsgFarDone || sent[0].Dst != 3 {
		t.Fatalf("expected FarDone to core 3, got %v", sent)
	}
	if d.PendingWork() {
		t.Fatal("uncontested far op left the line blocked")
	}
	if d.Stats.FarOps.Value() != 1 {
		t.Fatalf("far ops = %d", d.Stats.FarOps.Value())
	}
}

func TestFarInvalidatesSharers(t *testing.T) {
	d, net := newDirUnderTest()
	// Two sharers: cores 0 and 1.
	d.Handle(getS(0))
	net.take()
	d.Handle(unblock(0, GrantS))
	d.Handle(getS(1))
	net.take()
	d.Handle(unblock(1, GrantS))

	d.Handle(getFar(2))
	sent := net.take()
	invs := 0
	for _, m := range sent {
		if m.Type == MsgInv {
			invs++
			if m.Requestor != 32 {
				t.Fatalf("far Inv acks must return to the bank, got requestor %d", m.Requestor)
			}
		}
		if m.Type == MsgFarDone {
			t.Fatal("FarDone before the sharers acknowledged")
		}
	}
	if invs != 2 {
		t.Fatalf("%d invalidations, want 2", invs)
	}
	// Acks complete the operation.
	d.Handle(Msg{Type: MsgInvAck, Line: lineA, Src: 0, Dst: 32})
	if len(net.take()) != 0 {
		t.Fatal("answered with one ack outstanding")
	}
	d.Handle(Msg{Type: MsgInvAck, Line: lineA, Src: 1, Dst: 32})
	sent = net.take()
	if len(sent) != 1 || sent[0].Type != MsgFarDone || sent[0].Dst != 2 {
		t.Fatalf("expected FarDone after the final ack, got %v", sent)
	}
}

func TestFarRecallsOwner(t *testing.T) {
	d, net := newDirUnderTest()
	d.Handle(getX(0))
	net.take()
	d.Handle(unblockX(0))

	d.Handle(getFar(1))
	sent := net.take()
	if len(sent) != 1 || sent[0].Type != MsgFwdGetX || sent[0].Dst != 0 || sent[0].Requestor != 32 {
		t.Fatalf("expected a recall forward to the owner, got %v", sent)
	}
	// The owner's data return completes the op at the bank.
	d.Handle(Msg{Type: MsgData, Line: lineA, Src: 0, Dst: 32, Grant: GrantM, FromPrivate: true})
	sent = net.take()
	if len(sent) != 1 || sent[0].Type != MsgFarDone || sent[0].Dst != 1 {
		t.Fatalf("expected FarDone after the recall, got %v", sent)
	}
	// The line now lives at the L3: a following GetS is served from
	// the bank, not forwarded.
	d.Handle(getS(2))
	sent = net.take()
	if len(sent) != 1 || sent[0].Type != MsgData || sent[0].Dst != 2 {
		t.Fatalf("line did not land at the bank: %v", sent)
	}
}

func TestFarSerializesWithOtherRequests(t *testing.T) {
	d, net := newDirUnderTest()
	d.Handle(getX(0))
	net.take()
	d.Handle(unblockX(0))
	// A far op recalls the owner; a GetX arrives mid-transaction.
	d.Handle(getFar(1))
	net.take()
	d.Handle(getX(2))
	if len(net.take()) != 0 {
		t.Fatal("request served while a far op was in flight")
	}
	// Completing the far op releases the queued GetX (state I now, so
	// it is granted straight from the bank).
	d.Handle(Msg{Type: MsgData, Line: lineA, Src: 0, Dst: 32, Grant: GrantM, FromPrivate: true})
	sent := net.take()
	if len(sent) != 2 {
		t.Fatalf("expected FarDone + queued grant, got %v", sent)
	}
	if sent[0].Type != MsgFarDone || sent[1].Type != MsgData || sent[1].Dst != 2 {
		t.Fatalf("wrong release order: %v", sent)
	}
}

func TestBackToBackFarOpsSerialize(t *testing.T) {
	d, net := newDirUnderTest()
	// Put the line at a private owner so far ops must block.
	d.Handle(getX(0))
	net.take()
	d.Handle(unblockX(0))
	d.Handle(getFar(1))
	net.take()
	d.Handle(getFar(2)) // queued behind the first recall
	if len(net.take()) != 0 {
		t.Fatal("second far op served during the first's recall")
	}
	d.Handle(Msg{Type: MsgData, Line: lineA, Src: 0, Dst: 32, Grant: GrantM, FromPrivate: true})
	sent := net.take()
	// First FarDone, then the queued far op runs against state I and
	// answers immediately.
	if len(sent) != 2 || sent[0].Type != MsgFarDone || sent[0].Dst != 1 ||
		sent[1].Type != MsgFarDone || sent[1].Dst != 2 {
		t.Fatalf("far ops did not serialize cleanly: %v", sent)
	}
}
