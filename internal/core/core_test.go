package core

import (
	"slices"
	"strings"
	"testing"

	"rowsim/internal/coherence"
	"rowsim/internal/config"
	"rowsim/internal/slab"
	"rowsim/internal/trace"
)

func testCore(t *testing.T, cfgMut func(*config.Config)) *Core {
	t.Helper()
	cfg := config.Default()
	cfg.NumCores = 1
	if cfgMut != nil {
		cfgMut(cfg)
	}
	return New(0, cfg, trace.Program{})
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 4, 512: 512, 513: 1024}
	for in, want := range cases {
		if got := nextPow2(in); got != want {
			t.Errorf("nextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestTagRoundTrip(t *testing.T) {
	c := testCore(t, nil)
	c.rob[37] = robEntry{valid: true, id: 123456}
	tag := c.makeTag(37, 123456)
	e, slot := c.fromTag(tag)
	if e == nil || slot != 37 || e.id != 123456 {
		t.Fatalf("round trip failed: e=%v slot=%d", e, slot)
	}
	// Stale id: nil.
	if e, _ := c.fromTag(c.makeTag(37, 99)); e != nil {
		t.Fatal("stale tag resolved")
	}
	// The largest ROB config.Validate accepts: the last slot still
	// fits the tag's slot bits.
	c = testCore(t, func(cfg *config.Config) { cfg.Core.ROBSize = 1 << config.ROBSlotBits })
	last := uint32(len(c.rob) - 1)
	c.rob[last] = robEntry{valid: true, id: 77}
	if e, slot := c.fromTag(c.makeTag(last, 77)); e == nil || slot != last {
		t.Fatalf("slot %d lost in its tag: e=%v slot=%d", last, e, slot)
	}
}

func TestWrappedLatency(t *testing.T) {
	c := testCore(t, nil)
	if got := c.wrappedLatency(100, 500); got != 400 {
		t.Fatalf("latency = %d, want 400", got)
	}
	// The 14-bit subtractor aliases latencies near 2^14 (footnote 4):
	// a 16384+100 cycle latency reads as 100.
	if got := c.wrappedLatency(0, 16384+100); got != 100 {
		t.Fatalf("wrapped latency = %d, want 100", got)
	}
}

func TestFenceIDBookkeeping(t *testing.T) {
	c := testCore(t, nil)
	c.fenceIDs = []uint64{3, 7, 9}
	if !c.fenceBlocks(8) {
		t.Fatal("fence 3 must block id 8")
	}
	if c.fenceBlocks(2) {
		t.Fatal("no fence older than id 2")
	}
	c.removeFence(7)
	if len(c.fenceIDs) != 2 || c.fenceIDs[0] != 3 || c.fenceIDs[1] != 9 {
		t.Fatalf("fenceIDs = %v", c.fenceIDs)
	}
	c.removeFence(42) // absent: no-op
	if len(c.fenceIDs) != 2 {
		t.Fatal("removing an absent fence changed the list")
	}
}

func TestPosOfSlot(t *testing.T) {
	c := testCore(t, nil)
	// Simulate an advanced ring: head at 600 (wrapped).
	c.robHead, c.robTail = 600, 700
	for p := c.robHead; p < c.robTail; p++ {
		slot := c.slotOf(p)
		if got := c.posOfSlot(slot); got != p {
			t.Fatalf("posOfSlot(slotOf(%d)) = %d", p, got)
		}
	}
}

func TestAQScansEmpty(t *testing.T) {
	c := testCore(t, nil)
	if c.LineLocked(0x40) {
		t.Fatal("empty AQ reports a lock")
	}
	if c.olderSameLineAtomic(0x40, 5) || c.oldestUnlocked() != nil {
		t.Fatal("empty AQ reports conflicts")
	}
	if c.ExternalRequest(0x40, true) {
		t.Fatal("empty AQ stalls external requests")
	}
}

func TestAQLockBookkeeping(t *testing.T) {
	c := testCore(t, nil)
	c.aq[0] = aqEntry{id: 5, slot: 1, line: 0x100, hasAddr: true, locked: true}
	c.aqTail = 1
	if !c.LineLocked(0x100) {
		t.Fatal("locked line not reported")
	}
	if c.LineLocked(0x140) {
		t.Fatal("wrong line reported locked")
	}
	if !c.olderSameLineAtomic(0x100, 9) {
		t.Fatal("younger same-line atomic not blocked")
	}
	if c.olderSameLineAtomic(0x100, 5) {
		t.Fatal("the atomic blocks itself")
	}
	if c.olderSameLineAtomic(0x100, 3) {
		t.Fatal("an older atomic blocked by a younger one")
	}
	if c.oldestUnlocked() != nil {
		t.Fatal("locked entry counted as unlocked")
	}
	c.aq[0].locked = false
	if a := c.oldestUnlocked(); a == nil || a.id != 5 {
		t.Fatal("unlocked older atomic not reported")
	}
}

func TestExternalRequestDetection(t *testing.T) {
	cfg := config.Default()
	cfg.NumCores = 1
	cfg.RoW.Detection = config.DetectRW
	c := New(0, cfg, trace.Program{})
	// Unlocked address match: ready-window detection marks contended
	// without stalling.
	c.aq[0] = aqEntry{id: 5, slot: 1, line: 0x100, hasAddr: true}
	c.aqTail = 1
	if c.ExternalRequest(0x100, true) {
		t.Fatal("unlocked match must not stall")
	}
	if !c.aq[0].contended {
		t.Fatal("ready window did not mark contention")
	}
	// Locked match: stalls and marks.
	c.aq[0].contended = false
	c.aq[0].locked = true
	if !c.ExternalRequest(0x100, true) {
		t.Fatal("locked match must stall")
	}
	if !c.aq[0].contended {
		t.Fatal("execution window did not mark contention")
	}
}

func TestExternalRequestEWIgnoresUnlocked(t *testing.T) {
	cfg := config.Default()
	cfg.NumCores = 1
	cfg.RoW.Detection = config.DetectEW
	c := New(0, cfg, trace.Program{})
	c.aq[0] = aqEntry{id: 5, slot: 1, line: 0x100, hasAddr: true}
	c.aqTail = 1
	c.ExternalRequest(0x100, true)
	if c.aq[0].contended {
		t.Fatal("EW detection must not use the ready window")
	}
}

func TestDetectDirRespectsThreshold(t *testing.T) {
	cfg := config.Default()
	cfg.NumCores = 1
	cfg.RoW.Detection = config.DetectRWDir
	c := New(0, cfg, trace.Program{})
	if !c.detectDir() {
		t.Fatal("RW+Dir with a finite threshold must enable Dir detection")
	}
	cfg.RoW.LatencyThreshold = -1 // infinite
	if c.detectDir() {
		t.Fatal("infinite threshold must disable Dir detection")
	}
}

// TestLatencyPastTheWheelFails: an internal latency the execution wheel
// cannot hold is a model bug. It must surface as a ProtocolError that
// names the core and the latency, and the event must still fire, at
// the wheel's last bucket, rather than vanish.
func TestLatencyPastTheWheelFails(t *testing.T) {
	cfg := config.Default()
	cfg.NumCores = 4
	c := New(3, cfg, trace.Program{})
	sink := &coherence.ErrorSink{}
	c.SetErrorSink(sink)
	c.schedule(slab.WheelSize+4, evForwarded, 5, 9, 1)
	pe := sink.Err()
	if pe == nil {
		t.Fatal("a latency past the wheel raised no error")
	}
	want := "protocol error at cycle 0: core 3: internal latency 20 exceeds the 16-cycle execution wheel"
	if got := pe.Error(); !strings.HasPrefix(got, want) || !strings.Contains(got, "state={core3{") {
		t.Fatalf("got %q\nwant it to start %q and carry the core's state", got, want)
	}
	if ev := c.wheel.Bucket(slab.WheelSize - 1); len(ev) != 1 || ev[0].slot != 5 || ev[0].id != 9 {
		t.Fatalf("wheel's last bucket holds %v; want the clamped event", ev)
	}
}

// TestRestoredWheelKeepsCycles: Restore queues each bucket's
// completions for the first cycle past now that maps to it, so one
// scheduled afterwards for the same cycle joins them, behind.
func TestRestoredWheelKeepsCycles(t *testing.T) {
	cfg := config.Default()
	cfg.NumCores = 4
	sink := &coherence.ErrorSink{}
	c := New(3, cfg, trace.Program{})
	c.SetNow(100)
	c.schedule(3, evForwarded, 5, 9, 1)   // due at 103
	c.schedule(15, evForwarded, 6, 10, 1) // due at 115
	r := New(3, cfg, trace.Program{})
	r.SetErrorSink(sink)
	r.Restore(c.Snapshot())
	r.schedule(3, evForwarded, 7, 11, 1)
	if pe := sink.Err(); pe != nil {
		t.Fatal(pe)
	}
	for _, want := range []struct {
		at    uint64
		slots []uint32
	}{{103, []uint32{5, 7}}, {115, []uint32{6}}} {
		var got []uint32
		for l := r.wheel.Take(want.at - slab.WheelSize); !l.Empty(); {
			got = append(got, r.wheel.Pop(&l).slot)
		}
		if got != nil {
			t.Fatalf("cycle %d took %v, a wheel early", want.at-slab.WheelSize, got)
		}
		for l := r.wheel.Take(want.at); !l.Empty(); {
			got = append(got, r.wheel.Pop(&l).slot)
		}
		if !slices.Equal(got, want.slots) {
			t.Fatalf("cycle %d took %v, want %v", want.at, got, want.slots)
		}
	}
}

// TestCompletionBehindTheClockFails: a clock that runs backwards past a
// queued completion sends the next one into a bucket that holds another
// cycle. That is a ProtocolError, and the queued completion stays.
func TestCompletionBehindTheClockFails(t *testing.T) {
	cfg := config.Default()
	cfg.NumCores = 4
	c := New(3, cfg, trace.Program{})
	sink := &coherence.ErrorSink{}
	c.SetErrorSink(sink)
	c.SetNow(100)
	c.schedule(4, evForwarded, 5, 9, 1) // due at 104
	c.SetNow(84)
	c.schedule(4, evForwarded, 6, 10, 1) // due at 88: 104's bucket
	want := "protocol error at cycle 84: core 3: completion for cycle 88 lands in an execution-wheel bucket that holds another cycle"
	if pe := sink.Err(); pe == nil || !strings.HasPrefix(pe.Error(), want) {
		t.Fatalf("got %v, want an error starting %q", pe, want)
	}
	if ev := c.wheel.Bucket(104); len(ev) != 1 || ev[0].slot != 5 {
		t.Fatalf("bucket holds %v; want only the completion due at 104", ev)
	}
}
