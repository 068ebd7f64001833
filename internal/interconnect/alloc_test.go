package interconnect

import (
	"testing"

	"rowsim/internal/coherence"
)

// TestMeshSendDrainSteadyStateAllocsZero enforces the allocation-free
// hot path: once the event heap, inboxes and trace ring have grown to
// steady state, a full send -> Tick -> Drain round trip must not
// allocate at all. This is the contract that keeps
// GC time out of the simulator's per-cycle loop; if this test starts
// failing, something on the hot path regressed to heap allocation.
func TestMeshSendDrainSteadyStateAllocsZero(t *testing.T) {
	m := NewMesh(16, 1, 2, 4)
	cyc := uint64(0)
	round := func() {
		cyc += 8 // larger than any latency in this mesh: all events arrive
		m.Tick(cyc)
		for n := 0; n < 16; n++ {
			m.Drain(n)
		}
		m.Send(coherence.Msg{Type: coherence.MsgGetS, Src: 0, Dst: 5, Line: 0x40})
		m.Send(coherence.Msg{Type: coherence.MsgData, Src: 5, Dst: 0, Line: 0x40})
	}
	for i := 0; i < 512; i++ {
		round() // grow every structure to steady state
	}
	// 200 rounds counted as one run: a per-round average would round
	// anything under one allocation a round down to 0.
	if allocs := testing.AllocsPerRun(1, func() {
		for range 200 {
			round()
		}
	}); allocs != 0 {
		t.Fatalf("200 steady-state mesh round trips allocate %v times, want 0", allocs)
	}
}

// TestCacheDirectorySteadyStateAllocsZero runs the same check one
// level up: every directory transaction must be allocation-free in
// steady state. Each round plays the caches' side
// by hand, taking one line from I back to I through every handler.
func TestCacheDirectorySteadyStateAllocsZero(t *testing.T) {
	m := NewMesh(33, 1, 2, 4)
	d := coherence.NewDirectory(32, 0, m, 4<<20, 16, 64, 35, 160)
	cyc := uint64(0)
	line := uint64(0)
	from := func(core int, typ coherence.MsgType, grant coherence.GrantState) {
		d.Handle(coherence.Msg{Type: typ, Line: line, Src: core, Dst: 32, Requestor: core, Grant: grant})
	}
	round := func() {
		cyc += 512 // beyond DRAM latency: every reply arrives
		m.Tick(cyc)
		for n := 0; n < 33; n++ {
			m.Drain(n) // stand-in for the receiving caches
		}
		d.SetCycle(cyc)
		line = uint64(cyc%4096) * 64
		from(0, coherence.MsgGetX, 0) // I: Data, GrantM
		from(0, coherence.MsgUnblockX, 0)
		from(0, coherence.MsgPutX, 0) // M: written back, I
		from(1, coherence.MsgGetS, 0) // I: Data, GrantE
		from(1, coherence.MsgUnblock, coherence.GrantE)
		from(2, coherence.MsgGetS, 0) // M: FwdGetS to core 1
		from(2, coherence.MsgUnblock, coherence.GrantS)
		from(3, coherence.MsgGetFar, 0) // S: Inv to cores 1 and 2
		from(1, coherence.MsgInvAck, 0)
		from(2, coherence.MsgInvAck, 0) // recall done: FarDone, I
		from(3, coherence.MsgGetFar, 0) // I: FarDone
		from(0, coherence.MsgGetX, 0)
		from(0, coherence.MsgUnblockX, 0)
		from(3, coherence.MsgGetFar, 0) // M: FwdGetX to core 0
		from(0, coherence.MsgData, 0)   // recall done: FarDone, I
	}
	for i := 0; i < 8192; i++ {
		round() // touch every line slot so the directory table stops growing
	}
	far := d.Stats.FarOps.Value()
	if allocs := testing.AllocsPerRun(1, func() {
		for range 200 {
			round()
		}
	}); allocs != 0 {
		t.Fatalf("200 rounds of steady-state directory transactions allocate %v times, want 0", allocs)
	}
	// The window runs twice: once to warm up, then the run it counts.
	if got := d.Stats.FarOps.Value() - far; got != 3*400 {
		t.Fatalf("%d far RMWs in 400 rounds, want %d", got, 3*400)
	}
}
