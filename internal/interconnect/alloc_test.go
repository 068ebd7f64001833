package interconnect

import (
	"testing"

	"rowsim/internal/coherence"
)

// TestMeshSendDrainSteadyStateAllocsZero enforces the allocation-free
// hot path: once the calendar, inboxes and trace ring have grown to
// steady state, a full send -> Tick -> Drain round trip must not
// allocate at all. This is the contract that keeps
// GC time out of the simulator's per-cycle loop; if this test starts
// failing, something on the hot path regressed to heap allocation.
func TestMeshSendDrainSteadyStateAllocsZero(t *testing.T) {
	t.Run("16 nodes", func(t *testing.T) {
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
	})

	// The 64-node mesh under Table I timing, loaded as cold canneal
	// loads its mesh: four sends a cycle, due up to 241 cycles ahead
	// (the longest fault-free delay), about 600 messages in flight.
	// The send pattern repeats every period cycles, so a window of one
	// period holds no more in flight than the warm-up reached.
	t.Run("64 nodes", func(t *testing.T) {
		const nodes, perCycle, period = 64, 4, 3136
		m := NewMesh(nodes, 1, 2, 4)
		cyc, i := uint64(0), 0
		round := func() {
			cyc++
			m.Tick(cyc)
			for n := range nodes {
				m.Drain(n)
			}
			for range perCycle {
				src, dst := i%nodes, (i*7+3)%nodes
				extra := uint64(i*97%196) + 46 - m.Latency(src, dst) // 46: the 14-hop latency
				m.SendAfter(coherence.Msg{Type: coherence.MsgData, Src: src, Dst: dst, Line: uint64(i) * 64}, extra)
				i++
			}
		}
		for range 2 * period {
			round()
		}
		if allocs := testing.AllocsPerRun(1, func() {
			for range period {
				round()
			}
		}); allocs != 0 {
			t.Fatalf("%d steady-state cycles of a 64-node mesh allocate %v times, want 0", period, allocs)
		}
		inFlight := 0
		m.cal.each(m.now, func(uint64, *event) { inFlight++ })
		if inFlight < 500 || inFlight > 700 || len(m.cal.buckets) != calendarSize {
			t.Fatalf("%d messages in flight in %d buckets; the test means about 600 in %d", inFlight, len(m.cal.buckets), calendarSize)
		}
	})
}

// TestCalendarGrowthAllocsOnce: a send past the calendar's horizon
// doubles the wheel, which allocates its new bucket array and bitmap
// and nothing else; sends as far ahead after it allocate nothing.
func TestCalendarGrowthAllocsOnce(t *testing.T) {
	m := NewMesh(16, 1, 2, 4)
	cyc := uint64(0)
	round := func(extra uint64) {
		cyc++
		m.Tick(cyc)
		for n := range 16 {
			m.Drain(n)
		}
		m.SendAfter(coherence.Msg{Type: coherence.MsgData, Src: int(cyc % 16), Dst: 3}, extra)
	}
	for range 1000 {
		round(cyc % 200) // within the horizon: warm the slab and inboxes
	}
	// Each send lands past the horizon the one before it left.
	// AllocsPerRun counts the second, the first being its warm-up run.
	extras, i := []uint64{300, 600}, 0
	if allocs := testing.AllocsPerRun(1, func() { round(extras[i]); i++ }); allocs != 2 || len(m.cal.buckets) != 4*calendarSize {
		t.Fatalf("a send 600 cycles ahead allocates %v times and leaves %d buckets; want the 2 arrays of %d", allocs, len(m.cal.buckets), 4*calendarSize)
	}
	if allocs := testing.AllocsPerRun(1, func() {
		for range 2000 {
			round(cyc % 1000)
		}
	}); allocs != 0 {
		t.Fatalf("2000 sends up to 1000 cycles ahead of a grown calendar allocate %v times, want 0", allocs)
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
		from(3, coherence.MsgGetX, 0) // S: Inv to cores 1 and 2
		from(0, coherence.MsgGetS, 0) // queued behind the GetX
		from(3, coherence.MsgUnblockX, 0)
		from(0, coherence.MsgUnblock, coherence.GrantS) // the queued GetS was forwarded to core 3
		from(1, coherence.MsgGetX, 0)                   // S: Inv to cores 0 and 3
		from(1, coherence.MsgUnblockX, 0)
		from(1, coherence.MsgPutX, 0) // M: written back, I
	}
	for i := 0; i < 8192; i++ {
		round() // touch every line slot so the directory table stops growing
	}
	invs, stalled := d.Stats.Invalidates.Value(), d.Stats.Stalled.Value()
	if allocs := testing.AllocsPerRun(1, func() {
		for range 200 {
			round()
		}
	}); allocs != 0 {
		t.Fatalf("200 rounds of steady-state directory transactions allocate %v times, want 0", allocs)
	}
	// The window runs twice: once to warm up, then the run it counts.
	if got := d.Stats.Invalidates.Value() - invs; got != 4*400 {
		t.Fatalf("%d invalidations in 400 rounds, want %d", got, 4*400)
	}
	if got := d.Stats.Stalled.Value() - stalled; got != 400 {
		t.Fatalf("%d requests queued in 400 rounds, want 400", got)
	}
}
