package cache

import (
	"slices"
	"testing"

	"rowsim/internal/coherence"
)

func TestFarRMWSendsGetFar(t *testing.T) {
	p, net, _ := newCacheUnderTest()
	p.Tick(1)
	p.FarRMW(9, lineB+8)
	sent := net.take()
	if len(sent) != 1 || sent[0].Type != coherence.MsgGetFar || sent[0].Line != lineB {
		t.Fatalf("expected GetFar for the line, got %v", sent)
	}
	if !p.PendingWork() {
		t.Fatal("outstanding far RMW not reported as pending")
	}
}

func TestFarRMWDropsOwnedCopyWithWriteback(t *testing.T) {
	p, net, _ := newCacheUnderTest()
	p.Warm(lineB, StateM)
	p.Tick(1)
	p.FarRMW(9, lineB)
	if p.State(lineB) != StateI {
		t.Fatal("local copy survived a far RMW")
	}
	sent := net.take()
	if len(sent) != 2 || sent[0].Type != coherence.MsgPutX || sent[1].Type != coherence.MsgGetFar {
		t.Fatalf("expected PutX then GetFar, got %v", sent)
	}
}

func TestFarDoneRespondsFIFO(t *testing.T) {
	p, net, client := newCacheUnderTest()
	p.Tick(1)
	p.FarRMW(1, lineB)
	p.Tick(5)
	p.FarRMW(2, lineB)
	net.take()
	p.Deliver([]coherence.Msg{{Type: coherence.MsgFarDone, Line: lineB, Src: 32, Dst: 0}})
	if _, ok := client.resps[1]; !ok {
		t.Fatal("first far RMW not answered first")
	}
	if _, ok := client.resps[2]; ok {
		t.Fatal("second far RMW answered early")
	}
	p.Deliver([]coherence.Msg{{Type: coherence.MsgFarDone, Line: lineB, Src: 32, Dst: 0}})
	if _, ok := client.resps[2]; !ok {
		t.Fatal("second far RMW never answered")
	}
	if p.PendingWork() {
		t.Fatal("completed far RMWs still pending")
	}
}

func TestFarDoneLatencyMeasured(t *testing.T) {
	p, _, client := newCacheUnderTest()
	p.Tick(10)
	p.FarRMW(3, lineB)
	p.Tick(110)
	p.Deliver([]coherence.Msg{{Type: coherence.MsgFarDone, Line: lineB, Src: 32, Dst: 0}})
	info := client.resps[3]
	if info.Latency != 100 {
		t.Fatalf("far latency = %d, want 100", info.Latency)
	}
}

func TestStrayFarDonePanics(t *testing.T) {
	p, _, _ := newCacheUnderTest()
	defer func() {
		if recover() == nil {
			t.Fatal("stray FarDone accepted silently")
		}
	}()
	p.Deliver([]coherence.Msg{{Type: coherence.MsgFarDone, Line: lineB, Src: 32, Dst: 0}})
}

// TestFarRMWDeferredBehindOutstandingMiss is the regression test for a
// protocol bug the model checker (internal/mcheck) found: a far RMW
// issued while a same-line miss was in flight invalidated the local
// copy and queued a PutX that was stale at send time — but the upgrade
// fill then re-installed the line in M, and the once-stale PutX from
// the now-legitimate owner later wiped the directory entry, leaving the
// directory in I while the core held M. Far RMWs must park behind the
// in-flight miss and issue only once it retires.
func TestFarRMWDeferredBehindOutstandingMiss(t *testing.T) {
	p, net, client := newCacheUnderTest()
	p.Warm(lineB, StateS)
	p.Tick(1)
	p.Access(1, lineB, true) // upgrade miss: GetX goes out
	tick(p, 2, 20)
	if sent := net.take(); len(sent) != 1 || sent[0].Type != coherence.MsgGetX {
		t.Fatalf("expected the upgrade GetX, got %v", sent)
	}

	p.FarRMW(2, lineB)
	if sent := net.take(); len(sent) != 0 {
		t.Fatalf("far RMW issued traffic while a same-line miss is outstanding: %v", sent)
	}
	if p.State(lineB) == StateI {
		t.Fatal("deferred far RMW invalidated the local copy early")
	}
	if !p.PendingWork() {
		t.Fatal("deferred far RMW not reported as pending work")
	}

	// The upgrade fill retires the MSHR; the deferred far RMW must now
	// issue: invalidate the copy, write back the M line, send GetFar.
	p.Deliver([]coherence.Msg{{
		Type: coherence.MsgData, Line: lineB, Src: 32, Dst: 0, Requestor: 0,
		Grant: coherence.GrantM,
	}})
	p.Tick(21)
	if _, ok := client.resps[1]; !ok {
		t.Fatal("upgrade miss never completed")
	}
	var types []coherence.MsgType
	for _, m := range net.take() {
		types = append(types, m.Type)
	}
	want := []coherence.MsgType{coherence.MsgUnblockX, coherence.MsgPutX, coherence.MsgGetFar}
	if len(types) != len(want) {
		t.Fatalf("after fill: sent %v, want %v", types, want)
	}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("after fill: sent %v, want %v", types, want)
		}
	}
	if p.State(lineB) != StateI {
		t.Fatal("drained far RMW did not relinquish the copy")
	}

	// And the far completion still answers the deferred waiter.
	p.Deliver([]coherence.Msg{{Type: coherence.MsgFarDone, Line: lineB, Src: 32, Dst: 0}})
	if _, ok := client.resps[2]; !ok {
		t.Fatal("deferred far RMW never completed")
	}
	if p.PendingWork() {
		t.Fatal("completed far RMW still pending")
	}
}

// TestFarRMWIssuesImmediatelyWithoutMiss pins the fast path: with no
// same-line MSHR the far RMW must not be deferred.
func TestFarRMWIssuesImmediatelyWithoutMiss(t *testing.T) {
	p, net, _ := newCacheUnderTest()
	p.Tick(1)
	p.Access(1, lineB+512, true) // different line: no interference
	tick(p, 2, 20)
	net.take()
	p.FarRMW(2, lineB)
	sent := net.take()
	if len(sent) != 1 || sent[0].Type != coherence.MsgGetFar {
		t.Fatalf("far RMW on an idle line must issue at once, got %v", sent)
	}
}

// sentTypes drains the messages the cache sent and returns their types.
func sentTypes(net *fakeNet) []coherence.MsgType {
	var types []coherence.MsgType
	for _, m := range net.take() {
		types = append(types, m.Type)
	}
	return types
}

// TestFarRMWStaysDeferredBehindUpgrade covers the upgrade guard on the
// release of deferred far RMWs: a read miss is in flight, a write merges
// onto it and a far RMW defers behind it. The shared fill cannot satisfy
// the writer, which re-issues an upgrade on a fresh MSHR, and the far RMW
// must stay deferred behind that one too: issuing it would drop the copy
// the upgrade is about to re-install, as in
// TestFarRMWDeferredBehindOutstandingMiss.
func TestFarRMWStaysDeferredBehindUpgrade(t *testing.T) {
	p, net, client := newCacheUnderTest()
	p.Tick(1)
	p.Access(1, lineB, false)
	tick(p, 2, 20)
	p.Access(2, lineB, true) // merges onto the GetS in flight
	tick(p, 21, 40)
	if got := sentTypes(net); !slices.Equal(got, []coherence.MsgType{coherence.MsgGetS}) {
		t.Fatalf("before the fill: sent %v, want one GetS", got)
	}
	p.FarRMW(3, lineB)
	if p.FarDeferredView(lineB) == nil {
		t.Fatal("far RMW not deferred behind the read miss")
	}

	p.Deliver([]coherence.Msg{{
		Type: coherence.MsgData, Line: lineB, Src: 32, Dst: 0, Requestor: 0,
		Grant: coherence.GrantS,
	}})
	p.Tick(41)
	if _, ok := client.resps[1]; !ok {
		t.Fatal("reader not answered by the shared fill")
	}
	if _, ok := client.resps[2]; ok {
		t.Fatal("writer answered by a shared fill")
	}
	if got, want := sentTypes(net), []coherence.MsgType{coherence.MsgUnblock, coherence.MsgGetX}; !slices.Equal(got, want) {
		t.Fatalf("after the shared fill: sent %v, want %v (the writer's upgrade, no PutX or GetFar)", got, want)
	}
	if ws := p.FarDeferredView(lineB); len(ws) != 1 || ws[0].Tag != 3 {
		t.Fatalf("far RMW left the deferred list while the upgrade is in flight: deferred %v", ws)
	}
	if p.FarView(lineB) != nil {
		t.Fatal("far RMW issued while the upgrade is in flight")
	}

	p.Deliver([]coherence.Msg{{
		Type: coherence.MsgData, Line: lineB, Src: 32, Dst: 0, Requestor: 0,
		Grant: coherence.GrantM,
	}})
	p.Tick(42)
	if _, ok := client.resps[2]; !ok {
		t.Fatal("upgrade never answered the writer")
	}
	if got, want := sentTypes(net), []coherence.MsgType{coherence.MsgUnblockX, coherence.MsgPutX, coherence.MsgGetFar}; !slices.Equal(got, want) {
		t.Fatalf("after the upgrade: sent %v, want %v", got, want)
	}
	if p.FarDeferredView(lineB) != nil {
		t.Fatal("far RMW still deferred after the upgrade retired")
	}
	if ws := p.FarView(lineB); len(ws) != 1 || ws[0].Tag != 3 {
		t.Fatalf("outstanding far RMWs %v, want tag 3", ws)
	}
}
