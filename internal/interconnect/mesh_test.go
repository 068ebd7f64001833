package interconnect

import (
	"strings"
	"testing"
	"testing/quick"

	"rowsim/internal/coherence"
)

func newTestMesh() *Mesh { return NewMesh(40, 1, 2, 4) }

func TestLatencySymmetric(t *testing.T) {
	m := newTestMesh()
	f := func(a, b uint8) bool {
		x, y := int(a)%40, int(b)%40
		return m.Latency(x, y) == m.Latency(y, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLatencyTriangleInequality(t *testing.T) {
	m := newTestMesh()
	f := func(a, b, c uint8) bool {
		x, y, z := int(a)%40, int(b)%40, int(c)%40
		// Hop counts obey the triangle inequality on a mesh.
		return m.Hops(x, z) <= m.Hops(x, y)+m.Hops(y, z)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSelfLatencyIsBase(t *testing.T) {
	m := newTestMesh()
	if got := m.Latency(3, 3); got != 4 {
		t.Fatalf("self latency = %d, want base 4", got)
	}
}

func TestDeliveryTiming(t *testing.T) {
	m := newTestMesh()
	msg := coherence.Msg{Type: coherence.MsgGetS, Src: 0, Dst: 1}
	m.Tick(10)
	m.Send(msg)
	lat := m.Latency(0, 1)
	m.Tick(10 + lat - 1)
	if got := m.Drain(1); got != nil {
		t.Fatalf("message delivered a cycle early: %v", got)
	}
	m.Tick(10 + lat)
	got := m.Drain(1)
	if len(got) != 1 || got[0] != msg {
		t.Fatalf("expected the message at exactly t+latency, got %v", got)
	}
}

func TestSendAfterAddsDelay(t *testing.T) {
	m := newTestMesh()
	m.Tick(0)
	m.SendAfter(coherence.Msg{Src: 0, Dst: 1}, 100)
	m.Tick(m.Latency(0, 1) + 99)
	if m.Drain(1) != nil {
		t.Fatal("SendAfter delivered early")
	}
	m.Tick(m.Latency(0, 1) + 100)
	if len(m.Drain(1)) != 1 {
		t.Fatal("SendAfter never delivered")
	}
}

func TestFIFOOrderSameEndpoints(t *testing.T) {
	m := newTestMesh()
	m.Tick(0)
	a := coherence.Msg{Line: 1, Src: 0, Dst: 5}
	b := coherence.Msg{Line: 2, Src: 0, Dst: 5}
	m.Send(a)
	m.Send(b)
	m.Tick(1000)
	got := m.Drain(5)
	if len(got) != 2 || got[0] != a || got[1] != b {
		t.Fatalf("order not preserved: %v", got)
	}
}

func TestIdle(t *testing.T) {
	m := newTestMesh()
	if !m.Idle() {
		t.Fatal("fresh mesh not idle")
	}
	m.Tick(0)
	m.Send(coherence.Msg{Src: 0, Dst: 2})
	if m.Idle() {
		t.Fatal("mesh with in-flight message reported idle")
	}
	m.Tick(1000)
	if m.Idle() {
		t.Fatal("undrained inbox reported idle")
	}
	m.Drain(2)
	if !m.Idle() {
		t.Fatal("mesh should be idle after drain")
	}
}

func TestStats(t *testing.T) {
	m := newTestMesh()
	m.Tick(0)
	m.Send(coherence.Msg{Src: 0, Dst: 1})
	m.Send(coherence.Msg{Src: 0, Dst: 39})
	if m.Messages() != 2 {
		t.Fatalf("messages = %d", m.Messages())
	}
	if m.AvgHops() <= 0 {
		t.Fatalf("avg hops = %v", m.AvgHops())
	}
}

// TestUnknownDestinationPanics: without an error sink a send to a node
// the mesh does not have panics; with one, the recorded error names the
// message's line and the missing node.
func TestUnknownDestinationPanics(t *testing.T) {
	m := newTestMesh()
	sink := &coherence.ErrorSink{}
	m.SetErrorSink(sink)
	m.Send(coherence.Msg{Src: 0, Dst: 40, Line: 0x1c0})
	e := sink.Err()
	if e == nil {
		t.Fatal("send to unknown node recorded no protocol error")
	}
	if e.Line != 0x1c0 || !strings.Contains(e.Reason, "unknown node 40") {
		t.Fatalf("protocol error = line %#x, reason %q; want line 0x1c0 naming node 40", e.Line, e.Reason)
	}

	m = newTestMesh()
	defer func() {
		if recover() == nil {
			t.Fatal("send to unknown node did not panic")
		}
	}()
	m.Send(coherence.Msg{Src: 0, Dst: 40})
}

// dropAll is a perturber that drops every message.
type dropAll struct{}

func (dropAll) Perturb(*coherence.Msg) []uint64 { return nil }

// TestDroppedMessageTraced: a dropped message still shows in the trace
// ring under its own line, marked as dropped.
func TestDroppedMessageTraced(t *testing.T) {
	m := newTestMesh()
	m.SetPerturber(dropAll{})
	m.Tick(5)
	m.Send(coherence.Msg{Src: 0, Dst: 1, Line: 0x1c0})
	got := m.RecentTrace(0x1c0, 4)
	if len(got) != 1 || !strings.HasSuffix(got[0], "DROPPED") {
		t.Fatalf("RecentTrace = %q, want one DROPPED entry", got)
	}
}

// dupAll is a perturber that delivers every message twice.
type dupAll struct{}

func (dupAll) Perturb(*coherence.Msg) []uint64 { return []uint64{0, 3} }

// TestDuplicateDeliveredTwice: a duplicated message arrives twice, each
// copy a value equal to the message sent.
func TestDuplicateDeliveredTwice(t *testing.T) {
	m := newTestMesh()
	m.SetPerturber(dupAll{})
	m.Tick(0)
	sent := coherence.Msg{Type: coherence.MsgInv, Src: 0, Dst: 1, Line: 0x1c0, Requestor: 2}
	m.Send(sent)
	m.Tick(1000)
	got := m.Drain(1)
	if len(got) != 2 || got[0] != sent || got[1] != sent {
		t.Fatalf("delivered %v; want the message twice", got)
	}
}

// TestQuickEverythingDelivered: any batch of messages is fully
// delivered once the clock passes the maximum latency.
func TestQuickEverythingDelivered(t *testing.T) {
	f := func(dsts []uint8) bool {
		m := newTestMesh()
		m.Tick(0)
		for _, d := range dsts {
			m.Send(coherence.Msg{Src: int(d) % 7, Dst: int(d) % 40})
		}
		m.Tick(10000)
		total := 0
		for n := 0; n < 40; n++ {
			total += len(m.Drain(n))
		}
		return total == len(dsts) && m.Idle()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestDelayPastMaxDelayRaises: a send due more than maxDelay cycles
// ahead, which only a fault spec's jitter or a corrupt configuration
// asks for, is a protocol error naming the delay; the calendar does
// not grow for it and nothing is queued.
func TestDelayPastMaxDelayRaises(t *testing.T) {
	m := newTestMesh()
	sink := &coherence.ErrorSink{}
	m.SetErrorSink(sink)
	m.Tick(7)
	m.SendAfter(coherence.Msg{Src: 0, Dst: 1, Line: 0x1c0}, maxDelay)
	e := sink.Err()
	if e == nil {
		t.Fatalf("a send %d cycles ahead recorded no protocol error", maxDelay+m.Latency(0, 1))
	}
	if e.Line != 0x1c0 || !strings.Contains(e.Reason, "past the mesh's") {
		t.Fatalf("protocol error = line %#x, reason %q; want line 0x1c0 naming the mesh's bound", e.Line, e.Reason)
	}
	if !m.Idle() || len(m.cal.buckets) != calendarSize {
		t.Fatalf("the refused send left the mesh idle=%v with %d buckets", m.Idle(), len(m.cal.buckets))
	}
	m.SendAfter(coherence.Msg{Src: 0, Dst: 1}, maxDelay-m.Latency(0, 1))
	if m.Idle() || sink.Err() != e {
		t.Fatal("a send exactly maxDelay cycles ahead was refused")
	}
}

// TestTickBackwardsPanics: the calendar reads its buckets from the
// last Tick's cycle on, so a clock that runs backwards is a bug in the
// caller, not a state the mesh can deliver from.
func TestTickBackwardsPanics(t *testing.T) {
	m := newTestMesh()
	m.Tick(10)
	m.Tick(10) // the same cycle again is fine
	defer func() {
		if recover() == nil {
			t.Fatal("Tick(9) after Tick(10) did not panic")
		}
	}()
	m.Tick(9)
}
