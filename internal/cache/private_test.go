package cache

import (
	"slices"
	"strings"
	"testing"
	"unsafe"

	"rowsim/internal/coherence"
	"rowsim/internal/config"
	"rowsim/internal/slab"
)

// fakeNet records messages; tests play the directory side by hand.
type fakeNet struct {
	sent  []coherence.Msg
	extra []uint64
}

func (f *fakeNet) Send(m coherence.Msg) { f.SendAfter(m, 0) }
func (f *fakeNet) SendAfter(m coherence.Msg, extra uint64) {
	f.sent = append(f.sent, m)
	f.extra = append(f.extra, extra)
}
func (f *fakeNet) take() []coherence.Msg {
	s := f.sent
	f.sent = nil
	f.extra = nil
	return s
}

// fakeClient records controller callbacks and provides lock state.
type fakeClient struct {
	resps       map[uint64]RespInfo
	locked      map[uint64]bool
	invalidated []uint64
	stallNext   bool
	released    map[uint64]bool
}

func newFakeClient() *fakeClient {
	return &fakeClient{
		resps:    make(map[uint64]RespInfo),
		locked:   make(map[uint64]bool),
		released: make(map[uint64]bool),
	}
}

func (c *fakeClient) MemResp(tag uint64, info RespInfo) { c.resps[tag] = info }
func (c *fakeClient) ExternalRequest(line uint64, write bool) bool {
	return c.stallNext || c.locked[line]
}
func (c *fakeClient) LineInvalidated(line uint64) { c.invalidated = append(c.invalidated, line) }
func (c *fakeClient) LineLocked(line uint64) bool { return c.locked[line] }
func (c *fakeClient) ForceRelease(line uint64) bool {
	if c.locked[line] {
		delete(c.locked, line)
		c.released[line] = true
		return true
	}
	return false
}

func newCacheUnderTest() (*Private, *fakeNet, *fakeClient) {
	net := &fakeNet{}
	client := newFakeClient()
	cfg := config.Default()
	p := NewPrivate(0, cfg, net, client, func(line uint64) int { return 32 })
	return p, net, client
}

func tick(p *Private, from, to uint64) {
	for c := from; c <= to; c++ {
		p.Tick(c)
	}
}

const lineB = uint64(0x4000)

func TestMissSendsGetS(t *testing.T) {
	p, net, _ := newCacheUnderTest()
	p.Tick(1)
	p.Access(77, lineB, false)
	tick(p, 2, 20) // past the L2 lookup time
	sent := net.take()
	if len(sent) != 1 || sent[0].Type != coherence.MsgGetS || sent[0].Line != lineB || sent[0].Dst != 32 {
		t.Fatalf("expected one GetS, got %v", sent)
	}
}

func TestWriteMissSendsGetX(t *testing.T) {
	p, net, _ := newCacheUnderTest()
	p.Tick(1)
	p.Access(77, lineB, true)
	tick(p, 2, 20)
	sent := net.take()
	if len(sent) != 1 || sent[0].Type != coherence.MsgGetX {
		t.Fatalf("expected one GetX, got %v", sent)
	}
}

func TestFillRespondsAndUnblocks(t *testing.T) {
	p, net, client := newCacheUnderTest()
	p.Tick(1)
	p.Access(77, lineB, false)
	tick(p, 2, 20)
	net.take()
	p.Deliver([]coherence.Msg{{
		Type: coherence.MsgData, Line: lineB, Src: 32, Dst: 0, Requestor: 0,
		Grant: coherence.GrantE,
	}})
	p.Tick(21)
	info, ok := client.resps[77]
	if !ok {
		t.Fatal("no response delivered")
	}
	if info.Hit {
		t.Fatal("a coherence fill must not report Hit")
	}
	sent := net.take()
	if len(sent) != 1 || sent[0].Type != coherence.MsgUnblock || sent[0].Grant != coherence.GrantE {
		t.Fatalf("expected Unblock(GrantE), got %v", sent)
	}
	if p.State(lineB) != StateE {
		t.Fatalf("state = %d, want E", p.State(lineB))
	}
}

func TestHitAfterFill(t *testing.T) {
	p, net, client := newCacheUnderTest()
	p.Tick(1)
	p.Access(77, lineB, false)
	tick(p, 2, 20)
	net.take()
	p.Deliver([]coherence.Msg{{Type: coherence.MsgData, Line: lineB, Src: 32, Dst: 0, Grant: coherence.GrantE}})
	tick(p, 21, 22)
	net.take() // drop the Unblock that closed the fill
	p.Access(78, lineB, false)
	tick(p, 23, 40)
	info, ok := client.resps[78]
	if !ok || !info.Hit {
		t.Fatalf("expected an L1 hit, got %+v (ok=%v)", info, ok)
	}
	if info.Latency != 5 {
		t.Fatalf("L1 hit latency = %d, want 5", info.Latency)
	}
	if len(net.take()) != 0 {
		t.Fatal("hit must not generate traffic")
	}
}

func TestSilentEToMUpgrade(t *testing.T) {
	p, net, client := newCacheUnderTest()
	p.Warm(lineB, StateE)
	p.Tick(1)
	p.Access(9, lineB, true)
	tick(p, 2, 30)
	if _, ok := client.resps[9]; !ok {
		t.Fatal("write to E line did not respond")
	}
	if p.State(lineB) != StateM {
		t.Fatalf("state = %d, want M after silent upgrade", p.State(lineB))
	}
	if len(net.take()) != 0 {
		t.Fatal("silent upgrade must not generate traffic")
	}
}

func TestUpgradeFromSharedSendsGetX(t *testing.T) {
	p, net, _ := newCacheUnderTest()
	p.Warm(lineB, StateS)
	p.Tick(1)
	p.Access(9, lineB, true)
	tick(p, 2, 20)
	sent := net.take()
	if len(sent) != 1 || sent[0].Type != coherence.MsgGetX {
		t.Fatalf("expected an upgrade GetX, got %v", sent)
	}
}

func TestMSHRMergesSecondaryMisses(t *testing.T) {
	p, net, client := newCacheUnderTest()
	p.Tick(1)
	p.Access(1, lineB, false)
	p.Access(2, lineB+8, false) // same line, different offset
	tick(p, 2, 20)
	if sent := net.take(); len(sent) != 1 {
		t.Fatalf("secondary miss not merged: %d requests", len(sent))
	}
	p.Deliver([]coherence.Msg{{Type: coherence.MsgData, Line: lineB, Src: 32, Dst: 0, Grant: coherence.GrantS}})
	p.Tick(21)
	if len(client.resps) != 2 {
		t.Fatalf("merged waiters responded %d, want 2", len(client.resps))
	}
}

func TestInvAcksCollectedBeforeCompleting(t *testing.T) {
	p, net, client := newCacheUnderTest()
	p.Tick(1)
	p.Access(1, lineB, true)
	tick(p, 2, 20)
	net.take()
	p.Deliver([]coherence.Msg{{
		Type: coherence.MsgData, Line: lineB, Src: 32, Dst: 0,
		Grant: coherence.GrantM, AckCount: 2,
	}})
	p.Tick(21)
	if len(client.resps) != 0 {
		t.Fatal("completed before collecting invalidation acks")
	}
	p.Deliver([]coherence.Msg{{Type: coherence.MsgInvAck, Line: lineB, Src: 1, Dst: 0}})
	p.Tick(22)
	if len(client.resps) != 0 {
		t.Fatal("completed with one ack outstanding")
	}
	p.Deliver([]coherence.Msg{{Type: coherence.MsgInvAck, Line: lineB, Src: 2, Dst: 0}})
	p.Tick(23)
	if len(client.resps) != 1 {
		t.Fatal("did not complete after the final ack")
	}
}

func TestInvAckBeforeDataHandled(t *testing.T) {
	p, net, client := newCacheUnderTest()
	p.Tick(1)
	p.Access(1, lineB, true)
	tick(p, 2, 20)
	net.take()
	// The ack can outrun the data response.
	p.Deliver([]coherence.Msg{{Type: coherence.MsgInvAck, Line: lineB, Src: 1, Dst: 0}})
	p.Tick(21)
	p.Deliver([]coherence.Msg{{
		Type: coherence.MsgData, Line: lineB, Src: 32, Dst: 0,
		Grant: coherence.GrantM, AckCount: 1,
	}})
	p.Tick(22)
	if len(client.resps) != 1 {
		t.Fatal("early InvAck was lost")
	}
}

func TestExternalInvInvalidatesAndAcks(t *testing.T) {
	p, net, client := newCacheUnderTest()
	p.Warm(lineB, StateS)
	p.Deliver([]coherence.Msg{{Type: coherence.MsgInv, Line: lineB, Src: 32, Dst: 0, Requestor: 7}})
	if p.State(lineB) != StateI {
		t.Fatal("Inv did not invalidate")
	}
	if len(client.invalidated) != 1 || client.invalidated[0] != lineB {
		t.Fatal("LQ squash hook not called")
	}
	sent := net.take()
	if len(sent) != 1 || sent[0].Type != coherence.MsgInvAck || sent[0].Dst != 7 {
		t.Fatalf("expected InvAck to requestor 7, got %v", sent)
	}
}

func TestFwdGetXTransfersOwnership(t *testing.T) {
	p, net, _ := newCacheUnderTest()
	p.Warm(lineB, StateM)
	p.Deliver([]coherence.Msg{{Type: coherence.MsgFwdGetX, Line: lineB, Src: 32, Dst: 0, Requestor: 5}})
	if p.State(lineB) != StateI {
		t.Fatal("owner kept the line after FwdGetX")
	}
	sent := net.take()
	if len(sent) != 1 || sent[0].Type != coherence.MsgData || sent[0].Dst != 5 || !sent[0].FromPrivate {
		t.Fatalf("expected cache-to-cache Data, got %v", sent)
	}
}

func TestFwdGetSDowngrades(t *testing.T) {
	p, net, _ := newCacheUnderTest()
	p.Warm(lineB, StateM)
	p.Deliver([]coherence.Msg{{Type: coherence.MsgFwdGetS, Line: lineB, Src: 32, Dst: 0, Requestor: 5}})
	if p.State(lineB) != StateS {
		t.Fatalf("state = %d, want S after FwdGetS", p.State(lineB))
	}
	sent := net.take()
	if len(sent) != 1 || sent[0].Grant != coherence.GrantS || !sent[0].FromPrivate {
		t.Fatalf("bad forward response %v", sent)
	}
}

func TestLockedLineStallsExternalUntilRelease(t *testing.T) {
	p, net, client := newCacheUnderTest()
	p.Warm(lineB, StateM)
	client.locked[lineB] = true
	p.Deliver([]coherence.Msg{{Type: coherence.MsgFwdGetX, Line: lineB, Src: 32, Dst: 0, Requestor: 5}})
	if len(net.take()) != 0 {
		t.Fatal("locked line answered an external request")
	}
	if !p.HasStalledExternal(lineB) {
		t.Fatal("request not recorded as stalled")
	}
	if p.State(lineB) != StateM {
		t.Fatal("locked line was invalidated")
	}
	// Unlock: the stalled request is served.
	client.locked[lineB] = false
	p.LockReleased(lineB)
	sent := net.take()
	if len(sent) != 1 || sent[0].Type != coherence.MsgData || sent[0].Dst != 5 {
		t.Fatalf("stalled request not served on release, got %v", sent)
	}
	if p.State(lineB) != StateI {
		t.Fatal("line kept after serving the stalled FwdGetX")
	}
}

func TestForcedReleaseAfterLongStall(t *testing.T) {
	p, net, client := newCacheUnderTest()
	p.Warm(lineB, StateM)
	client.locked[lineB] = true
	p.Tick(1)
	p.Deliver([]coherence.Msg{{Type: coherence.MsgFwdGetX, Line: lineB, Src: 32, Dst: 0, Requestor: 5}})
	p.Tick(releaseAfter) // not yet over the threshold
	if client.released[lineB] {
		t.Fatal("released before the deadline")
	}
	p.Tick(releaseAfter + 2)
	if !client.released[lineB] {
		t.Fatal("progress guarantee never fired")
	}
	sent := net.take()
	if len(sent) != 1 || sent[0].Type != coherence.MsgData || sent[0].Dst != 5 {
		t.Fatalf("stalled request not served after forced release: %v", sent)
	}
	if p.Stats.ForcedRel.Value() != 1 {
		t.Fatalf("forced releases = %d, want 1", p.Stats.ForcedRel.Value())
	}
}

func TestStoreComplete(t *testing.T) {
	p, _, _ := newCacheUnderTest()
	if p.StoreComplete(lineB) {
		t.Fatal("store completed without the line")
	}
	p.Warm(lineB, StateE)
	if !p.StoreComplete(lineB) {
		t.Fatal("store to E line failed")
	}
	if p.State(lineB) != StateM {
		t.Fatal("store did not dirty the line")
	}
	p.Warm(lineB+64, StateS)
	if p.StoreComplete(lineB + 64) {
		t.Fatal("store to S line must need a GetX")
	}
}

func TestPrefetcherIssuesOnSteadyStride(t *testing.T) {
	p, net, _ := newCacheUnderTest()
	p.Tick(1)
	pc := uint64(0x400100)
	// Train: three accesses with stride 64 (beyond the confirm count).
	for i := uint64(0); i < 4; i++ {
		p.TrainPrefetch(pc, 0x80000+i*64)
	}
	tick(p, 2, 40)
	// At least one prefetch request must have gone out beyond the
	// demand stream.
	if p.Stats.Prefetches.Value() == 0 {
		t.Fatal("no prefetches after a steady stride")
	}
	reqs := net.take()
	if len(reqs) == 0 {
		t.Fatal("prefetch produced no traffic")
	}
}

func TestPrefetcherIgnoresRandomPattern(t *testing.T) {
	p, _, _ := newCacheUnderTest()
	p.Tick(1)
	pc := uint64(0x400200)
	addrs := []uint64{0x1000, 0x9000, 0x3000, 0xF000, 0x2000}
	for _, a := range addrs {
		p.TrainPrefetch(pc, a)
	}
	if p.Stats.Prefetches.Value() != 0 {
		t.Fatalf("prefetched %d times on a random pattern", p.Stats.Prefetches.Value())
	}
}

func TestEvictionWritesBack(t *testing.T) {
	p, net, client := newCacheUnderTest()
	// Fill one L2 set to capacity with warm M lines, then a demand
	// fill into the same set must evict one of them with a PutX.
	// L2: 1 MiB, 8 ways, 64B lines -> 2048 sets; set stride 2048*64.
	setStride := uint64(2048 * 64)
	for i := uint64(1); i <= 8; i++ {
		p.Warm(lineB+i*setStride, StateM)
	}
	p.Tick(1)
	p.Access(1, lineB, true)
	tick(p, 2, 20)
	net.take()
	p.Deliver([]coherence.Msg{{Type: coherence.MsgData, Line: lineB, Src: 32, Dst: 0, Grant: coherence.GrantM}})
	p.Tick(21)
	var putx int
	for _, m := range net.take() {
		if m.Type == coherence.MsgPutX {
			putx++
		}
	}
	if putx != 1 {
		t.Fatalf("%d writebacks, want 1", putx)
	}
	if len(client.invalidated) != 1 {
		t.Fatalf("M eviction must trigger the squash hook once, got %d", len(client.invalidated))
	}
}

func TestLine(t *testing.T) {
	p, _, _ := newCacheUnderTest()
	if p.Line(0x12345) != 0x12340 {
		t.Fatalf("Line(0x12345) = %#x", p.Line(0x12345))
	}
}

// TestEventRecordSize: a wheel record is an event and its slab link,
// which rides in the event's padding: six words at most.
func TestEventRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(struct {
		event
		next slab.Ref
	}{}); got > 48 {
		t.Fatalf("a wheel record is %d bytes, want at most 48", got)
	}
}

// fill delivers the data for line's miss at cycle, as the run loop
// does: Deliver at the previous cycle's clock, then Tick.
func fill(p *Private, line, cycle uint64) {
	p.SetNow(cycle - 1)
	p.Deliver([]coherence.Msg{{Type: coherence.MsgData, Line: line, Src: 32, Grant: coherence.GrantS}})
	p.Tick(cycle)
}

// TestParkedMissesWakeOldestFirst: with both MSHRs busy, misses park
// and take freed MSHRs in arrival order. A miss that arrives in the
// cycle an MSHR frees still queues behind the parked ones; a miss to a
// line with an open MSHR merges without waiting; and each parked miss
// counts in MSHRFull once, however long it waits.
func TestParkedMissesWakeOldestFirst(t *testing.T) {
	net, client := &fakeNet{}, newFakeClient()
	cfg := config.Default()
	cfg.Mem.MSHRs = 2
	p := NewPrivate(0, cfg, net, client, func(uint64) int { return 32 })
	line := func(i uint64) uint64 { return lineB + i*64 }
	p.Tick(1)
	for i := uint64(1); i <= 4; i++ {
		p.Access(i, line(i), false)
	}
	tick(p, 2, 20) // lines 1 and 2 take the MSHRs, 3 and 4 park
	p.Access(5, line(5), false)
	tick(p, 21, 31)
	fill(p, line(1), 32) // 5's lookup ends as 1's MSHR frees: 5 parks behind 4
	p.Access(6, line(6), false)
	p.Access(7, line(2), false) // merges into 2's open MSHR
	tick(p, 33, 50)
	if got := p.Stats.MSHRFull.Value(); got != 4 {
		t.Errorf("MSHRFull = %d with 4 misses parked, want 4", got)
	}
	for i, c := uint64(2), uint64(51); i <= 6; i, c = i+1, c+1 {
		fill(p, line(i), c)
	}
	var order []uint64
	for _, m := range net.take() {
		if m.Type == coherence.MsgGetS {
			order = append(order, (m.Line-lineB)/64)
		}
	}
	if !slices.Equal(order, []uint64{1, 2, 3, 4, 5, 6}) {
		t.Errorf("GetS went out for lines %v, want 1 to 6 in arrival order", order)
	}
	for tag := uint64(1); tag <= 7; tag++ {
		if _, ok := client.resps[tag]; !ok {
			t.Errorf("access %d never answered", tag)
		}
	}
	if got := p.Stats.MSHRFull.Value(); got != 4 || p.PendingWork() {
		t.Errorf("after the fills: MSHRFull = %d (want 4), pending work %v", got, p.PendingWork())
	}
}

// TestOldestMissNamesParkedMiss: a parked miss that has waited longest
// is what deadlock diagnostics report, so a wake that never comes does
// not read as a core waiting on nothing.
func TestOldestMissNamesParkedMiss(t *testing.T) {
	cfg := config.Default()
	cfg.Mem.MSHRs = 1
	p := NewPrivate(0, cfg, &fakeNet{}, newFakeClient(), func(uint64) int { return 32 })
	p.Tick(1)
	p.Access(1, lineB, false)
	tick(p, 2, 5)
	p.Access(2, lineB+64, false)
	p.Access(3, lineB+128, false)
	tick(p, 6, 20)
	// Lose the wake: the MSHR retires without the Tick that follows.
	p.Deliver([]coherence.Msg{{Type: coherence.MsgData, Line: lineB, Src: 32, Grant: coherence.GrantS}})
	line, desc, ok := p.OldestMiss()
	if want := "miss at cycle 5 parked, 0 ahead, MSHR file full"; !ok || line != lineB+64 || desc != want {
		t.Errorf("OldestMiss() = %#x, %q, %v; want %#x, %q", line, desc, ok, lineB+64, want)
	}
	if !p.PendingWork() {
		t.Error("parked misses are pending work")
	}
}

// countingClient is a Client that allocates nothing when called.
type countingClient struct {
	resps  int
	locked uint64 // the line the core holds locked (0: none)
}

func (c *countingClient) MemResp(uint64, RespInfo)                 { c.resps++ }
func (c *countingClient) ExternalRequest(line uint64, _ bool) bool { return line == c.locked }
func (c *countingClient) LineInvalidated(uint64)                   {}
func (c *countingClient) LineLocked(line uint64) bool              { return line == c.locked }
func (c *countingClient) ForceRelease(uint64) bool                 { return false }

// discardNet drops every message the cache sends: the test plays the
// directory's side itself.
type discardNet struct{}

func (discardNet) Send(coherence.Msg)              {}
func (discardNet) SendAfter(coherence.Msg, uint64) {}

// TestPipelineSteadyStateAllocs pins the queue's hot loop at zero
// allocations once its slab has grown: hit after hit through push, Tick
// and MemResp. Then the MSHR file: misses parked behind a full file and
// woken by fills. Then the protocol endpoint: misses filled by Data and
// external requests served, one of them stalled behind a locked line.
func TestPipelineSteadyStateAllocs(t *testing.T) {
	client := &countingClient{}
	p := NewPrivate(0, config.Default(), &fakeNet{}, client, func(uint64) int { return 32 })
	p.Warm(lineB, StateE)
	cycle := uint64(1)
	hits := func() {
		for i := uint64(0); i < 100; i++ {
			p.Tick(cycle)
			p.Access(i, lineB, i%2 == 0)
			p.Access(i, lineB+8, false)
			cycle++
		}
	}
	hits() // warm-up: the slab grows to the pipeline's depth
	before := client.resps
	// Each AllocsPerRun below measures its whole window as one run:
	// averaged over many runs, the integer division would hide fewer
	// allocations than runs. It also runs the window once to warm up.
	if n := testing.AllocsPerRun(1, func() {
		for range 10 {
			hits()
		}
	}); n != 0 {
		t.Errorf("hit loop allocates %v times in 2000 hits, want 0", n)
	}
	if got := client.resps - before; got < 4000 {
		t.Fatalf("%d hits answered, want at least 4000", got)
	}

	one := make([]coherence.Msg, 1)
	deliverTo := func(c *Private, typ coherence.MsgType, line uint64, grant coherence.GrantState) {
		one[0] = coherence.Msg{Type: typ, Line: line, Src: 32, Dst: 0, Requestor: 5, Grant: grant}
		c.Deliver(one)
	}
	// One miss takes the only MSHR, three park behind it; each fill
	// wakes the next, and invalidations make the four lines miss again.
	cfg := config.Default()
	cfg.Mem.MSHRs = 1
	rc := &countingClient{}
	r := NewPrivate(0, cfg, discardNet{}, rc, func(uint64) int { return 32 })
	storm := func() {
		for i := uint64(0); i < 4; i++ {
			r.Access(i, lineB+i*64, false)
		}
		tick(r, cycle, cycle+20)
		cycle += 21
		for i := uint64(0); i < 4; i++ {
			deliverTo(r, coherence.MsgData, lineB+i*64, coherence.GrantS)
			r.Tick(cycle)
			cycle++
		}
		for i := uint64(0); i < 4; i++ {
			deliverTo(r, coherence.MsgInv, lineB+i*64, 0)
		}
	}
	storm() // warm-up: the queue and the waiter lists reach their size
	parked, answered := r.Stats.MSHRFull.Value(), rc.resps
	if n := testing.AllocsPerRun(1, func() {
		for range 20 {
			storm()
		}
	}); n != 0 {
		t.Errorf("20 park-and-wake rounds allocate %v times, want 0", n)
	}
	if parked, answered = r.Stats.MSHRFull.Value()-parked, rc.resps-answered; parked != 120 || answered != 160 || r.PendingWork() {
		t.Fatalf("40 rounds parked %d misses and answered %d, pending work %v; want 120, 160, none", parked, answered, r.PendingWork())
	}

	qc := &countingClient{}
	q := NewPrivate(0, config.Default(), discardNet{}, qc, func(uint64) int { return 32 })
	deliver := func(typ coherence.MsgType, grant coherence.GrantState) { deliverTo(q, typ, lineB, grant) }
	miss := func(write bool) {
		q.Tick(cycle)
		q.Access(0, lineB, write)
		tick(q, cycle+1, cycle+20) // past the L2 lookup: the request goes out
		cycle += 21
	}
	protocol := func() {
		miss(false)
		deliver(coherence.MsgData, coherence.GrantE) // fill: E
		deliver(coherence.MsgFwdGetS, 0)             // E -> S
		deliver(coherence.MsgInv, 0)                 // S -> I
		miss(true)
		deliver(coherence.MsgData, coherence.GrantM) // fill: M
		qc.locked = lineB
		deliver(coherence.MsgFwdGetX, 0) // stalled behind the lock
		qc.locked = 0
		q.LockReleased(lineB) // served: M -> I
	}
	protocol() // warm-up: the tables reach their size
	stalls, fwds, fills := q.Stats.ExtStalls.Value(), q.Stats.Forwarded.Value(), qc.resps
	if n := testing.AllocsPerRun(1, func() {
		for range 20 {
			protocol()
		}
	}); n != 0 {
		t.Errorf("20 protocol rounds allocate %v times, want 0", n)
	}
	// The window runs twice: once to warm up, then the run it counts.
	stalls, fwds = q.Stats.ExtStalls.Value()-stalls, q.Stats.Forwarded.Value()-fwds
	if fills = qc.resps - fills; stalls != 40 || fwds != 80 || fills != 80 {
		t.Fatalf("40 rounds made %d stalls, %d forwards, %d fills; want 40, 80, 80", stalls, fwds, fills)
	}
}

// TestLateTickDrainsInTimeOrder: a Tick past several due events
// handles them in time order, reading the wheel from the clock of the
// call before it.
func TestLateTickDrainsInTimeOrder(t *testing.T) {
	rec := &recorder{}
	p := NewPrivate(0, config.Default(), rec, rec, func(uint64) int { return 32 })
	p.Warm(lineB, StateE)
	p.SetNow(100)
	p.Access(1, lineB, false) // L2 hit: answered at 112
	p.SetNow(103)
	p.Access(2, lineB, false)    // L1 hit: answered at 108
	p.Access(3, lineB+64, false) // miss: GetS at 115
	p.Tick(120)
	var got []string
	for _, l := range rec.log {
		got = append(got, strings.Fields(l)[1]+" "+strings.Fields(l)[2])
	}
	if want := []string{"resp tag=2", "resp tag=1", "send GetS"}; !slices.Equal(got, want) {
		t.Fatalf("Tick(120) did %q, want %q", got, want)
	}
	if !p.events.Empty() {
		t.Error("events left queued")
	}
}

// TestEventOutsideWindowIsProtocolError: the wheel's ordering rests on
// every event being due within a wheel of now, in a bucket that holds
// only its cycle. A caller that breaks that gets a structured error
// through the sink, not a panic and not a misordered queue, and the
// event is dropped.
func TestEventOutsideWindowIsProtocolError(t *testing.T) {
	for _, c := range []struct {
		name string
		now  uint64 // the clock of the second access, which is due 12 later
		want string
	}{
		{"clock ran backwards", 84, "pipeline event for cycle 96 lands in a wheel bucket that holds another cycle"},
		{"clock passed a queued event", 116, "pipeline event for cycle 128 lands in a wheel bucket that holds another cycle"},
	} {
		t.Run(c.name, func(t *testing.T) {
			p, _, _ := newCacheUnderTest()
			sink := &coherence.ErrorSink{}
			p.SetErrorSink(sink)
			p.SetNow(100)
			p.Access(1, lineB, false) // due at 112
			p.SetNow(c.now)
			p.Access(2, lineB+64, false) // due in 112's bucket
			pe := sink.Err()
			if pe == nil || pe.Component != "cache 0" || pe.Cycle != c.now || !strings.HasPrefix(pe.Reason, c.want) {
				t.Fatalf("error = %v, want %q at cycle %d", pe, c.want, c.now)
			}
			if evs := p.Snapshot().Events; len(evs) != 1 || evs[0].At != 112 {
				t.Errorf("queue holds %v; want only the event at 112", evs)
			}
		})
	}
	p, _, _ := newCacheUnderTest()
	sink := &coherence.ErrorSink{}
	p.SetErrorSink(sink)
	p.push(event{at: slab.WheelSize, kind: evRespond})
	if pe := sink.Err(); pe == nil || pe.Reason != "pipeline event for cycle 16 outside the 16-cycle wheel's window" {
		t.Fatalf("error = %v, want the event a wheel ahead refused", pe)
	}
	if !p.events.Empty() {
		t.Error("the refused event was queued")
	}
}
