package sim

import (
	"errors"
	"fmt"
	"math/bits"
	"strings"
	"testing"

	"rowsim/internal/cache"
	"rowsim/internal/coherence"
	"rowsim/internal/config"
	"rowsim/internal/faults"
	"rowsim/internal/trace"
	"rowsim/internal/workload"
)

func contendedSystem(t *testing.T, cores int, opts ...Option) *System {
	t.Helper()
	cfg := config.Default()
	cfg.NumCores = cores
	cfg.Policy = config.PolicyEager
	cfg.MaxCycles = 5_000_000
	progs := workload.Generate(workload.MustGet("pc"), cores, 1500, 11)
	s, err := New(cfg, progs, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCycleLimitError: an exhausted budget comes back as a structured
// *CycleLimitError carrying the abort cycle and a state dump.
func TestCycleLimitError(t *testing.T) {
	cfg := config.Default()
	cfg.NumCores = 4
	cfg.MaxCycles = 300 // far too few to finish
	progs := workload.Generate(workload.MustGet("pc"), 4, 1500, 11)
	s, err := New(cfg, progs)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Run()
	var ce *CycleLimitError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CycleLimitError, got %T: %v", err, err)
	}
	if ce.Cycle <= ce.MaxCycles || ce.MaxCycles != 300 {
		t.Fatalf("bad cycle accounting: %+v", ce)
	}
}

// TestWatchdogFiresOnDroppedMessages: with every message dropped the
// system stops committing, and the watchdog reports a structured
// deadlock diagnosis with the wait-for chain.
func TestWatchdogFiresOnDroppedMessages(t *testing.T) {
	s := contendedSystem(t, 4,
		WithFaults(faults.Config{Seed: 1, DropProb: 1}),
	)
	_, err := s.Run()
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("want *DeadlockError, got %T: %v", err, err)
	}
	if len(de.Chain) == 0 {
		t.Fatalf("deadlock report has no wait-for chain: %v", de)
	}
	// Dropped requests never reach a bank, so the chain must dead-end
	// (not report a false protocol cycle) and say the message was lost.
	if de.Cyclic {
		t.Fatalf("dropped-message stall misreported as a protocol cycle:\n%v", de)
	}
	if !strings.Contains(de.Error(), "wait-for chain") {
		t.Fatalf("report lacks the wait-for chain:\n%v", de)
	}
	if s.FaultStats().Dropped == 0 {
		t.Fatal("injector reports no drops")
	}
}

// TestWatchdogReportsLockCycle: two cores each lock one line with an
// eager atomic while an older load, held back behind a miss to memory,
// misses on the other core's line. Each load's request stalls behind
// the other core's lock. Without forced release that is a deadlock,
// and the watchdog must name the cycle core 0 -> core 1 -> core 0;
// with it the run completes, which is the paper's progress guarantee.
func TestWatchdogReportsLockCycle(t *testing.T) {
	lines := [2]uint64{0x10000, 0x20040}
	build := func() *System {
		progs := make([]trace.Program, 2)
		for i := range progs {
			progs[i] = trace.Program{
				{PC: 0x400000, Kind: trace.Load, Addr: 0x800000 + uint64(i)<<12, Size: 8, Dst: 3},
				{PC: 0x400004, Kind: trace.Load, Addr: lines[1-i], Size: 8, Src1: 3, Dst: 1},
				{PC: 0x400008, Kind: trace.Atomic, Addr: lines[i], Size: 8, Dst: 2, AtomicOp: trace.FAA},
			}
		}
		cfg := config.Default()
		cfg.NumCores = 2
		cfg.Policy = config.PolicyEager
		cfg.WarmCaches = false
		s, err := New(cfg, progs)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := build()
	for _, pc := range s.Caches() {
		pc.DisableForcedRelease()
	}
	_, err := s.Run()
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("want *DeadlockError, got %T: %v", err, err)
	}
	if !de.Cyclic || len(de.Chain) != 2 {
		t.Fatalf("want a two-core cycle, got:\n%v", de)
	}
	for i, e := range de.Chain {
		if e.Core != i || e.Next != 1-i || e.Line != lines[1-i] || !e.Stalled {
			t.Fatalf("edge %d is %v; want core %d waiting on line %#x, stalled behind core %d's lock", i, e, i, lines[1-i], 1-i)
		}
	}

	r, err := build().Run()
	if err != nil {
		t.Fatalf("with forced release: %v", err)
	}
	if r.Committed != 6 || r.ForcedReleases == 0 {
		t.Fatalf("with forced release: %d instructions committed after %d forced releases; want 6 after some", r.Committed, r.ForcedReleases)
	}
}

// TestCheckCoherenceReportsDualExclusive: an injected dual-exclusive
// line is reported by Quiesce as a *CoherenceViolationError naming both
// holders.
func TestCheckCoherenceReportsDualExclusive(t *testing.T) {
	s := contendedSystem(t, 4)
	const line = 0x4c0
	s.Caches()[0].Warm(line, cache.StateE)
	s.Caches()[2].Warm(line, cache.StateE)
	err := s.Quiesce()
	var ve *CoherenceViolationError
	if !errors.As(err, &ve) {
		t.Fatalf("want *CoherenceViolationError, got %T: %v", err, err)
	}
	if ve.Line != line || len(ve.Holders) != 2 {
		t.Fatalf("bad violation report: %+v", ve)
	}
}

// corruptFirstUnblock is a perturber that re-attributes the first
// Unblock it sees to the wrong core of a 4-core system, a seeded
// protocol bug.
type corruptFirstUnblock struct{ done bool }

func (c *corruptFirstUnblock) Perturb(m *coherence.Msg) []uint64 {
	if !c.done && (m.Type == coherence.MsgUnblock || m.Type == coherence.MsgUnblockX) {
		c.done = true
		m.Src = (m.Src + 1) % 4
	}
	return []uint64{0}
}

// TestSeededProtocolBugSurfaces seeds a protocol bug on the mesh — the
// first Unblock is re-attributed to the wrong core — and verifies it surfaces as a structured *coherence.ProtocolError
// with cycle, line and transaction context, not a panic.
func TestSeededProtocolBugSurfaces(t *testing.T) {
	s := contendedSystem(t, 4)
	s.mesh.SetPerturber(&corruptFirstUnblock{})
	_, err := s.Run()
	var pe *coherence.ProtocolError
	if !errors.As(err, &pe) {
		t.Fatalf("want *coherence.ProtocolError, got %T: %v", err, err)
	}
	if pe.Cycle == 0 || pe.Line == 0 || pe.Component == "" || pe.State == "" {
		t.Fatalf("protocol error missing context: %+v", pe)
	}
	if len(pe.Trace) == 0 {
		t.Fatalf("protocol error carries no message trace:\n%v", pe)
	}
	if !strings.Contains(pe.Reason, "Unblock") {
		t.Fatalf("unexpected failure reason: %v", pe)
	}
}

// TestQuiesceFindsLostUnblock: a lost Unblock on a line no core asks
// for again stalls no core, so Run completes; the drain after it finds
// the line's bank still blocked and names both.
func TestQuiesceFindsLostUnblock(t *testing.T) {
	s := contendedSystem(t, 4)
	drop := &dropUnblock{askers: map[uint64]uint64{}}
	s.mesh.SetPerturber(drop)
	if _, err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if drop.dropped == nil {
		t.Fatal("no Unblock was sent")
	}
	err := s.Quiesce()
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("want *DeadlockError, got %T: %v", err, err)
	}
	want := fmt.Sprintf("bank%d line=%#x ", drop.dropped.Dst-4, drop.dropped.Line)
	if !strings.Contains(de.Error(), want) {
		t.Fatalf("report does not name %q:\n%v", want, de)
	}
}

// TestDuplicatedMessagesAreDetected: message duplication violates the
// protocol's delivery assumptions and must surface as a structured
// *coherence.ProtocolError (e.g. a duplicate Data with no MSHR), never
// pass silently or crash.
func TestDuplicatedMessagesAreDetected(t *testing.T) {
	s := contendedSystem(t, 4,
		WithFaults(faults.Config{Seed: 1, DupProb: 0.05}),
	)
	_, err := s.Run()
	var pe *coherence.ProtocolError
	if !errors.As(err, &pe) {
		t.Fatalf("want *coherence.ProtocolError, got %T: %v", err, err)
	}
}

// TestLegalFaultsComplete: a run under heavy legal perturbation (jitter
// + reordering) still completes and drains with no protocol or
// invariant failure.
func TestLegalFaultsComplete(t *testing.T) {
	s := contendedSystem(t, 4,
		WithFaults(faults.Config{Seed: 7, JitterProb: 0.5, JitterMax: 16, ReorderProb: 0.1, ReorderMax: 64}),
	)
	r, err := s.Run()
	if err == nil {
		err = s.Quiesce()
	}
	if err != nil {
		t.Fatalf("legal faults must be tolerated: %v", err)
	}
	fs := s.FaultStats()
	if fs.Jittered == 0 || fs.Reordered == 0 {
		t.Fatalf("faults not exercised: %+v", fs)
	}
	if r.Committed == 0 {
		t.Fatal("no instructions committed")
	}
}

// TestDeterministicReplay is the regression for the repro-line
// guarantee: building the same system twice (same config, workload
// seed, fault seed) yields an identical Result.
func TestDeterministicReplay(t *testing.T) {
	run := func() Result {
		s := contendedSystem(t, 4,
			WithFaults(faults.Config{Seed: 13, JitterProb: 0.25, JitterMax: 12, ReorderProb: 0.05, ReorderMax: 64}),
		)
		r, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("nondeterministic replay:\nfirst  %+v\nsecond %+v", a, b)
	}
}

// dropUnblock is a perturber that loses the first Unblock or UnblockX
// for a line at least minAskers cores have requested, and delivers
// every other message untouched.
type dropUnblock struct {
	askers    map[uint64]uint64 // line -> bit mask of requesting cores
	minAskers int
	dropped   *coherence.Msg
}

func (d *dropUnblock) Perturb(m *coherence.Msg) []uint64 {
	switch {
	case d.dropped != nil:
	case m.Type == coherence.MsgGetS || m.Type == coherence.MsgGetX:
		d.askers[m.Line] |= 1 << uint(m.Src)
	case m.Type == coherence.MsgUnblock || m.Type == coherence.MsgUnblockX:
		if bits.OnesCount64(d.askers[m.Line]) >= d.minAskers {
			lost := *m
			d.dropped = &lost
			return nil
		}
	}
	return []uint64{0}
}

// TestDeadlockChainThroughBlockedLine: a lost Unblock leaves its
// directory line blocked, so the next core to ask for the contended
// line queues behind a transaction that never closes. The diagnoser's
// chain must walk from that core through the bank, name the Unblock
// the bank still awaits, and end at the requestor that sent it.
func TestDeadlockChainThroughBlockedLine(t *testing.T) {
	s := contendedSystem(t, 4)
	drop := &dropUnblock{askers: map[uint64]uint64{}, minAskers: 2}
	s.mesh.SetPerturber(drop)
	_, err := s.Run()
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("want *DeadlockError, got %T: %v", err, err)
	}
	if drop.dropped == nil {
		t.Fatal("no Unblock was sent")
	}
	req, bank := drop.dropped.Src, drop.dropped.Dst-4
	want := fmt.Sprintf("bank %d: awaiting Unblock from requestor %d -> core %d", bank, req, req)
	for _, e := range de.Chain {
		if e.Line == drop.dropped.Line && strings.Contains(e.String(), want) {
			return
		}
	}
	t.Fatalf("no hop of the chain reads %q for line %#x:\n%v", want, drop.dropped.Line, de)
}
