package interconnect

import (
	"testing"

	"rowsim/internal/coherence"
)

// TestMeshSendDrainSteadyStateAllocsZero enforces the allocation-free
// hot path: once the event heap, inboxes, trace ring and message pool
// have grown to steady state, a full send -> Tick -> Drain -> release
// round trip must not allocate at all. This is the contract that keeps
// GC time out of the simulator's per-cycle loop; if this test starts
// failing, something on the hot path regressed to heap allocation.
func TestMeshSendDrainSteadyStateAllocsZero(t *testing.T) {
	m := NewMesh(16, 1, 2, 4)
	pool := &coherence.MsgPool{}
	m.SetMsgPool(pool)
	cyc := uint64(0)
	round := func() {
		cyc += 8 // larger than any latency in this mesh: all events arrive
		m.Tick(cyc)
		for n := 0; n < 16; n++ {
			if !m.HasMail(n) {
				continue
			}
			for _, d := range m.Drain(n) {
				pool.Put(d)
			}
		}
		m.Send(pool.New(coherence.Msg{Type: coherence.MsgGetS, Src: 0, Dst: 5, Line: 0x40}))
		m.Send(pool.New(coherence.Msg{Type: coherence.MsgData, Src: 5, Dst: 0, Line: 0x40}))
	}
	for i := 0; i < 512; i++ {
		round() // grow every structure to steady state
	}
	if avg := testing.AllocsPerRun(200, round); avg != 0 {
		t.Fatalf("steady-state mesh round trip allocates %v allocs/op, want 0", avg)
	}
}

// TestCacheDirectorySteadyStateAllocsZero runs the same check one
// level up: with pooled messages, every directory transaction must be
// allocation-free in steady state. Each round plays the caches' side
// by hand, taking one line from I back to I through every handler.
func TestCacheDirectorySteadyStateAllocsZero(t *testing.T) {
	pool := &coherence.MsgPool{}
	m := NewMesh(33, 1, 2, 4)
	m.SetMsgPool(pool)
	d := coherence.NewDirectory(32, 0, m, 4<<20, 16, 64, 35, 160)
	d.SetMsgPool(pool)
	cyc := uint64(0)
	line := uint64(0)
	from := func(core int, typ coherence.MsgType, grant coherence.GrantState) {
		d.Handle(pool.New(coherence.Msg{Type: typ, Line: line, Src: core, Dst: 32, Requestor: core, Grant: grant}))
	}
	round := func() {
		cyc += 512 // beyond DRAM latency: every reply arrives
		m.Tick(cyc)
		for n := 0; n < 33; n++ {
			for _, msg := range m.Drain(n) {
				pool.Put(msg) // stand-in for the receiving cache
			}
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
	if avg := testing.AllocsPerRun(200, round); avg != 0 {
		t.Fatalf("steady-state directory transactions allocate %v allocs/op, want 0", avg)
	}
	if got := d.Stats.FarOps.Value() - far; got != 3*201 {
		t.Fatalf("%d far RMWs in 201 rounds, want %d", got, 3*201)
	}
}
