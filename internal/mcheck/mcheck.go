// Package mcheck is an exhaustive small-scope model checker for the
// blocking MESI directory protocol. It drives the real implementation
// — internal/coherence, internal/cache and internal/interconnect, the
// same code the simulator runs — not a reimplemented abstract model:
// for tiny configurations (1–4 cores, 1–2 cachelines, 1–2 banks,
// a bounded program of loads/stores/atomic RMWs per core) it
// enumerates every legal interleaving of mesh message deliveries and
// core memory operations by depth-first search with canonicalized
// state hashing, checking the protocol invariants at every explored
// state. On a violation it shrinks the witness with delta debugging
// and emits a one-line spec that `rowtorture -replay` re-executes
// against the same component stack.
//
// The choice points are: which core issues its next program operation,
// which core executes (and unlocks) a locked atomic, and which queued
// mesh message is delivered next. The forced-release timeout is not
// modelled: an external request stalls only on a locked line, and
// executing the atomic that holds it is always a choice. Between
// choices the model "settles": cache pipeline events are drained to
// completion, so every visited state is a quiescent point where only
// choice-driven progress remains. Deliveries follow per-channel FIFO,
// what the timed mesh guarantees under the fault injector's legal
// reorderings; it includes global send order (no reordering at all),
// so a search under that order would find nothing this one misses.
//
// Every state is checked for swmr, owner, data-value and protocol,
// every leaf also for stuck-blocked and deadlock
// (InvariantError.Kind). The search covers orderings, not timing: the
// state key leaves out clocks, latencies and LRU state, and torture
// covers timing. The model core locks same-line atomics in age order,
// as the real core does, so no interleaving the core cannot produce is
// explored. The owner invariant is checked only at line-quiesced
// states and only one way, because silent S evictions make the sharer
// mask an over-approximation.
package mcheck

import (
	"fmt"
	"strings"

	"rowsim/internal/cache"
	"rowsim/internal/coherence"
	"rowsim/internal/config"
	"rowsim/internal/interconnect"
)

// OpKind enumerates the model's memory operations.
type OpKind uint8

const (
	// OpLoad is a plain load.
	OpLoad OpKind = iota
	// OpStore is a plain store.
	OpStore
	// OpRMW is an atomic: acquire the line in M, lock it, and
	// execute/unlock as a separate choice (the "no rush" window).
	OpRMW
)

func (k OpKind) String() string {
	switch k {
	case OpLoad:
		return "L"
	case OpStore:
		return "S"
	case OpRMW:
		return "R"
	}
	return "?"
}

// Op is one program operation on a line index (0-based; line i lives
// at address i*lineBytes).
type Op struct {
	Kind OpKind
	Line int
}

// Config bounds the model.
type Config struct {
	Cores int // 2..4
	Lines int // 1..2
	Banks int // 1..2
	Ops   int // per-core program length when Progs is nil

	// Lazy selects the lazy RoW issue discipline: one operation in
	// flight per core. Eager allows a window of two.
	Lazy bool

	// Bug seeds a protocol mutation into the first matching message
	// delivered: "" (none), "getx-as-gets" or "drop-unblock" (bank 0's
	// first GetX or Unblock), or "drop-inv" (a core's first Inv).
	Bug string

	// Progs overrides the generated per-core programs.
	Progs [][]Op

	// MaxStates truncates the search after visiting this many states
	// (0: unlimited).
	MaxStates uint64

	// StopAfter, when non-nil, is polled periodically; returning true
	// truncates the search. The CLI injects a wall-clock cap through
	// it so the checker itself never reads time.
	StopAfter func() bool
}

const lineBytes = 64

// Window returns the per-core in-flight operation window.
func (c *Config) Window() int {
	if c.Lazy {
		return 1
	}
	return 2
}

func (c *Config) validate() error {
	if c.Cores < 1 || c.Cores > 4 {
		return fmt.Errorf("mcheck: cores must be 1..4, got %d", c.Cores)
	}
	if c.Lines < 1 || c.Lines > 2 {
		return fmt.Errorf("mcheck: lines must be 1..2, got %d", c.Lines)
	}
	if c.Banks < 1 || c.Banks > 2 {
		return fmt.Errorf("mcheck: banks must be 1..2, got %d", c.Banks)
	}
	switch c.Bug {
	case "", "getx-as-gets", "drop-unblock", "drop-inv":
	default:
		return fmt.Errorf("mcheck: unknown bug %q", c.Bug)
	}
	for ci, prog := range c.Progs {
		if len(prog) > 15 {
			return fmt.Errorf("mcheck: core %d program longer than 15 ops", ci)
		}
		for _, op := range prog {
			if op.Line < 0 || op.Line >= c.Lines {
				return fmt.Errorf("mcheck: core %d references line %d outside 0..%d", ci, op.Line, c.Lines-1)
			}
		}
	}
	return nil
}

// DefaultProgs generates the standard contended workload: each core's
// k-th slot rotates through RMW(0), load, store and RMW(0) again with
// a per-core phase shift, so line 0 sees lock contention from every
// core while loads and stores rove over all lines.
func DefaultProgs(cores, lines, ops int) [][]Op {
	progs := make([][]Op, cores)
	for c := 0; c < cores; c++ {
		prog := make([]Op, 0, ops)
		for k := 0; k < ops; k++ {
			switch (c + k) % 4 {
			case 0, 3:
				prog = append(prog, Op{Kind: OpRMW, Line: 0})
			case 1:
				prog = append(prog, Op{Kind: OpLoad, Line: k % lines})
			case 2:
				prog = append(prog, Op{Kind: OpStore, Line: k % lines})
			}
		}
		progs[c] = prog
	}
	return progs
}

// InvariantError reports a protocol invariant violated at an explored
// state, with the (shrunk) choice trace that reaches it and a one-line
// spec replayable by rowtorture -replay.
type InvariantError struct {
	// Kind is the invariant class: "swmr", "owner", "data-value",
	// "stuck-blocked", "deadlock" or "protocol".
	Kind   string
	Detail string
	// Trace is the choice-label sequence from the initial state to the
	// violation (shrunk when produced by Check).
	Trace []string
	// Spec is the one-line replayable witness (FormatSpec output).
	Spec string
}

func (e *InvariantError) Error() string {
	return fmt.Sprintf("mcheck: %s invariant violated after %d choices: %s", e.Kind, len(e.Trace), e.Detail)
}

// Stats summarizes a search.
type Stats struct {
	Visited     uint64 // unique canonical states
	Transitions uint64 // choice applications
	MaxDepth    int
	Truncated   bool // stopped by MaxStates or StopAfter before exhaustion
}

// Result is the outcome of a search or replay.
type Result struct {
	Stats     Stats
	Violation *InvariantError // nil when every explored state satisfied the invariants
}

// --- model ---

type opStatus uint8

const (
	opPending  opStatus = iota // not (re)issued yet
	opInFlight                 // issued, awaiting completion
	opLocked                   // RMW fill arrived; lock held, execute pending
	opDone
)

// modelCore is the minimal cache.Client the checker drives in place of
// the OoO core: a straight-line program with an issue window, explicit
// lock tracking, and completions queued for processing outside cache
// call frames.
type modelCore struct {
	m  *Model
	id int

	prog   []Op
	status []opStatus
	locked uint64 // bitmask over line indices

	// completions queues MemResp callbacks; the settle loop drains it
	// so StoreComplete and lock bookkeeping never reenter the cache
	// from inside one of its own callbacks. validAtResp records the
	// line state the cache held when the response fired: a load's
	// value is captured at fill time, so a later same-settle
	// invalidation must not be mistaken for a fill that never
	// installed.
	completions []completion
}

type completion struct {
	tag         uint64
	validAtResp bool
}

func (c *modelCore) tag(opIdx int) uint64 { return uint64(c.id<<4 | opIdx) }

func opOfTag(tag uint64) int { return int(tag & 15) }

// MemResp implements cache.Client.
func (c *modelCore) MemResp(tag uint64, info cache.RespInfo) {
	valid := true
	if idx := opOfTag(tag); idx < len(c.prog) {
		addr := c.m.lineAddr(c.prog[idx].Line)
		valid = c.m.caches[c.id].State(addr) != cache.StateI
	}
	c.completions = append(c.completions, completion{tag: tag, validAtResp: valid})
}

// ExternalRequest implements cache.Client: stall external requests for
// locked lines (the atomic holds the line until it executes).
func (c *modelCore) ExternalRequest(line uint64, write bool) bool {
	return c.locked&(1<<c.m.lineIdx(line)) != 0
}

// LineInvalidated implements cache.Client. The model has no
// speculative loads to squash, so the body is empty, and coverage
// reports a function without statements as never run.
func (c *modelCore) LineInvalidated(line uint64) {}

// LineLocked implements cache.Client: veto evictions of locked lines.
// A cache asks only when a fill must evict from a full set, and the
// model's one or two lines never fill a set, so no search calls it.
func (c *modelCore) LineLocked(line uint64) bool {
	return c.locked&(1<<c.m.lineIdx(line)) != 0
}

// ForceRelease implements cache.Client. The checker disables the
// forced-release sweep (the timeout is not modelled), so no cache asks.
func (c *modelCore) ForceRelease(line uint64) bool { return false }

// Model is one instantiated configuration under search: the real
// component stack (caches, directory banks, mesh) plus the model
// cores and ghost state.
type Model struct {
	cfg   Config
	mem   *config.Memory // the component stack's memory parameters
	nodes int

	sink   *coherence.ErrorSink
	mesh   *interconnect.Mesh
	caches []*cache.Private
	dirs   []*coherence.Directory
	cores  []*modelCore

	clock    uint64
	bugFired bool

	// viol records a violation detected inside a transition (data
	// value, protocol error); state invariants are checked after.
	viol *InvariantError

	trace []string

	delivBuf []interconnect.Deliverable
	encBuf   []byte
	pendBuf  []coherence.Msg
}

func (m *Model) lineAddr(idx int) uint64 { return uint64(idx) * lineBytes }
func (m *Model) lineIdx(addr uint64) int { return int(addr / lineBytes) }
func (m *Model) bankOf(line uint64) int  { return m.cfg.Cores + m.mem.HomeBank(line) }

// NewModel builds the component stack for one configuration. The cache
// geometry is deliberately tiny (snapshots are taken at every DFS
// node) but still multi-way and multi-set so the install and eviction
// paths run for real; with at most two distinct lines no capacity or
// conflict eviction can occur, keeping LRU state behaviorally inert.
func NewModel(cfgIn Config) (*Model, error) {
	cfg := cfgIn
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Progs == nil {
		ops := cfg.Ops
		if ops <= 0 {
			ops = 3
		}
		cfg.Progs = DefaultProgs(cfg.Cores, cfg.Lines, ops)
	}

	sc := config.Default().Clone()
	sc.NumCores = cfg.Cores
	sc.Mem.LineBytes = lineBytes
	sc.Mem.L1D.SizeBytes = 1 << 10
	sc.Mem.L1D.Ways = 4
	sc.Mem.L1D.HitCycles = 1
	sc.Mem.L2.SizeBytes = 2 << 10
	sc.Mem.L2.Ways = 4
	sc.Mem.L2.HitCycles = 2
	sc.Mem.MSHRs = 8
	sc.Mem.PrefetcherDegree = 0
	sc.Mem.L3Banks = cfg.Banks

	m := &Model{cfg: cfg, mem: &sc.Mem, nodes: cfg.Cores + cfg.Banks}
	m.sink = &coherence.ErrorSink{}
	m.mesh = interconnect.NewMesh(m.nodes, 1, 1, 1)

	bankOf := m.bankOf
	for b := 0; b < cfg.Banks; b++ {
		d := coherence.NewDirectory(cfg.Cores+b, b, m.mesh, 4<<10, 4, lineBytes, 1, 2)
		d.SetErrorSink(m.sink)
		m.dirs = append(m.dirs, d)
	}
	for i := 0; i < cfg.Cores; i++ {
		mc := &modelCore{m: m, id: i, prog: cfg.Progs[i], status: make([]opStatus, len(cfg.Progs[i]))}
		m.cores = append(m.cores, mc)
		pc := cache.NewPrivate(i, sc, m.mesh, mc, bankOf)
		pc.SetErrorSink(m.sink)
		pc.DisableForcedRelease()
		m.caches = append(m.caches, pc)
	}
	return m, nil
}

// seedBug applies the seeded protocol mutation to a message about to
// be delivered and reports whether the message survives. getx-as-gets
// and drop-unblock act on messages to bank 0; drop-inv drops the first
// Inv to any core, whose sharer then never acks, so the writer's fill
// never completes. The fired flag is model state: it is captured by
// snapshots so the DFS explores "bug already fired" and "not yet" as
// distinct histories.
func (m *Model) seedBug(msg *coherence.Msg) bool {
	if m.bugFired {
		return true
	}
	toBank0 := msg.Dst == m.cfg.Cores
	switch {
	case m.cfg.Bug == "getx-as-gets" && toBank0 && msg.Type == coherence.MsgGetX:
		msg.Type = coherence.MsgGetS
		m.bugFired = true
		return true
	case m.cfg.Bug == "drop-unblock" && toBank0 && (msg.Type == coherence.MsgUnblock || msg.Type == coherence.MsgUnblockX),
		m.cfg.Bug == "drop-inv" && msg.Type == coherence.MsgInv:
		m.bugFired = true
		return false
	}
	return true
}

// --- transitions ---

type choiceKind uint8

const (
	chIssue choiceKind = iota
	chExec
	chDeliver
)

type choice struct {
	kind choiceKind
	core int    // issue, exec
	line int    // exec (line index)
	seq  uint64 // deliver
	src  int    // deliver
	dst  int    // deliver
}

func (c choice) label() string {
	switch c.kind {
	case chIssue:
		return fmt.Sprintf("i%d", c.core)
	case chExec:
		return fmt.Sprintf("x%d.%d", c.core, c.line)
	case chDeliver:
		return fmt.Sprintf("d%d-%d", c.src, c.dst)
	}
	return "?"
}

func (c *modelCore) inFlight() int {
	n := 0
	for _, st := range c.status {
		if st == opInFlight || st == opLocked {
			n++
		}
	}
	return n
}

func (c *modelCore) nextPending() int {
	for i, st := range c.status {
		if st == opPending {
			return i
		}
	}
	return -1
}

// enabled returns the choices available at the current settled state,
// in deterministic order.
func (m *Model) enabled(dst []choice) []choice {
	dst = dst[:0]
	window := m.cfg.Window()
	for ci, c := range m.cores {
		if c.inFlight() >= window {
			continue
		}
		idx := c.nextPending()
		if idx < 0 {
			continue
		}
		// The atomic queue serializes same-line atomics in age order
		// (core.tryLock): a younger atomic does not dispatch while an
		// older same-line atomic is still in flight.
		op := c.prog[idx]
		if op.Kind == OpRMW {
			blocked := false
			for i := 0; i < idx; i++ {
				prev := c.prog[i]
				if prev.Kind == OpRMW && prev.Line == op.Line && c.status[i] != opDone {
					blocked = true
					break
				}
			}
			if blocked {
				continue
			}
		}
		dst = append(dst, choice{kind: chIssue, core: ci})
	}
	for ci, c := range m.cores {
		for li := 0; li < m.cfg.Lines; li++ {
			if c.locked&(1<<li) != 0 {
				dst = append(dst, choice{kind: chExec, core: ci, line: li})
			}
		}
	}
	m.delivBuf = m.mesh.Deliverables(m.delivBuf)
	for _, d := range m.delivBuf {
		dst = append(dst, choice{kind: chDeliver, seq: d.Seq, src: d.Src, dst: d.Dst})
	}
	return dst
}

// apply fires one choice and settles the pipelines. It returns false
// when a violation was detected during the transition.
func (m *Model) apply(ch choice) bool {
	m.clock++
	switch ch.kind {
	case chIssue:
		c := m.cores[ch.core]
		idx := c.nextPending()
		op := c.prog[idx]
		c.status[idx] = opInFlight
		pc := m.caches[ch.core]
		pc.SetNow(m.clock)
		addr := m.lineAddr(op.Line)
		switch op.Kind {
		case OpLoad:
			pc.Access(c.tag(idx), addr, false)
		case OpStore, OpRMW:
			pc.Access(c.tag(idx), addr, true)
		}
	case chExec:
		m.execRMW(ch.core, ch.line)
	case chDeliver:
		msg, ok := m.mesh.TakeSeq(ch.seq)
		if !ok {
			m.violate("deadlock", fmt.Sprintf("replay chose seq %d which is not queued", ch.seq))
			return false
		}
		if msg.Dst >= m.cfg.Cores {
			d := m.dirs[msg.Dst-m.cfg.Cores]
			d.SetCycle(m.clock)
			if m.seedBug(&msg) {
				d.Handle(msg)
			}
		} else if m.seedBug(&msg) {
			m.caches[msg.Dst].DeliverOne(msg)
		}
	}
	m.settle()
	if m.viol == nil {
		m.checkState()
	}
	return m.viol == nil
}

// execRMW is the execute/unlock half of an atomic: the write is
// performed while the lock is held, then the lock releases — which
// immediately serves any stalled external request (the Fig. 8 window).
func (m *Model) execRMW(core, line int) {
	c := m.cores[core]
	addr := m.lineAddr(line)
	pc := m.caches[core]
	if st := pc.State(addr); st != cache.StateM && st != cache.StateE {
		m.violate("data-value", fmt.Sprintf("core %d executes atomic on line %d holding state %d (want M/E)", core, line, st))
		return
	}
	if !pc.StoreComplete(addr) {
		m.violate("data-value", fmt.Sprintf("core %d atomic store on line %d rejected (copy lost while locked)", core, line))
		return
	}
	for i, op := range c.prog {
		if op.Kind == OpRMW && op.Line == line && c.status[i] == opLocked {
			c.status[i] = opDone
			break
		}
	}
	c.locked &^= 1 << line
	pc.SetNow(m.clock)
	pc.LockReleased(addr)
}

// settle drains cache pipeline events and queued completions until the
// only remaining progress is choice-driven. Event effects are local to
// their cache (messages go into the mesh, to be delivered by later
// choices), so the drain order across caches cannot matter.
func (m *Model) settle() {
	for guard := 0; ; guard++ {
		if guard > 1<<20 {
			panic("mcheck: settle did not converge")
		}
		progressed := false
		for _, c := range m.cores {
			if len(c.completions) > 0 {
				progressed = true
				m.drainCompletions(c)
			}
		}
		var at uint64
		found := false
		for _, pc := range m.caches {
			if t, ok := pc.EarliestPipelineEvent(); ok && (!found || t < at) {
				at, found = t, true
			}
		}
		if !found {
			if !progressed {
				return
			}
			continue
		}
		if at > m.clock {
			m.clock = at
		}
		for _, pc := range m.caches {
			pc.Tick(m.clock)
		}
	}
}

// drainCompletions processes MemResp callbacks outside cache call
// frames: store commits and lock acquisitions mutate the cache, and
// doing that from inside Deliver or Tick would reenter it.
func (m *Model) drainCompletions(c *modelCore) {
	for len(c.completions) > 0 {
		comp := c.completions[0]
		c.completions = c.completions[:copy(c.completions, c.completions[1:])]
		tag := comp.tag
		idx := opOfTag(tag)
		if idx >= len(c.prog) || c.status[idx] != opInFlight {
			m.violate("data-value", fmt.Sprintf("core %d completion for op %d in status %d", c.id, idx, c.status[idx]))
			return
		}
		op := c.prog[idx]
		addr := m.lineAddr(op.Line)
		pc := m.caches[c.id]
		switch op.Kind {
		case OpLoad:
			if !comp.validAtResp {
				m.violate("data-value", fmt.Sprintf("core %d load of line %d completed without a valid copy", c.id, op.Line))
				return
			}
			c.status[idx] = opDone
		case OpStore:
			if !pc.StoreComplete(addr) {
				// Write permission was lost between the fill and the
				// commit (a racing external). The store buffer
				// re-acquires the line and retries (core.drainSB);
				// losing permission here is legal, failing to retry
				// would be the bug.
				pc.SetNow(m.clock)
				pc.Access(tag, addr, true)
				continue
			}
			c.status[idx] = opDone
		case OpRMW:
			// Fill arrived with write permission: take the lock. The
			// execute/unlock is a separate choice so the search
			// explores every legal hold duration.
			c.status[idx] = opLocked
			c.locked |= 1 << op.Line
		}
	}
}

func (m *Model) violate(kind, detail string) {
	if m.viol == nil {
		m.viol = &InvariantError{Kind: kind, Detail: detail}
	}
}

// --- state invariants ---

// checkState evaluates the per-state invariants at a settled state.
func (m *Model) checkState() {
	if e := m.sink.Err(); e != nil {
		m.violate("protocol", e.Error())
		return
	}
	for li := 0; li < m.cfg.Lines; li++ {
		if !m.checkLine(li) {
			return
		}
	}
}

// checkLine enforces SWMR at every state, and directory agreement at
// per-line quiesced states (when no transaction on the line is in
// flight anywhere). Agreement is one-sided: silent S evictions mean
// the sharer bits over-approximate the true holders.
func (m *Model) checkLine(li int) bool {
	addr := m.lineAddr(li)
	writers, readers := 0, 0
	holders := make([]uint8, len(m.caches))
	for ci, pc := range m.caches {
		st := pc.State(addr)
		holders[ci] = st
		switch st {
		case cache.StateM, cache.StateE:
			writers++
		case cache.StateS:
			readers++
		}
	}
	if writers > 1 || (writers == 1 && readers > 0) {
		m.violate("swmr", fmt.Sprintf("line %d held as %s", li, holdersString(holders)))
		return false
	}
	if !m.lineQuiesced(li, addr) {
		return true
	}
	ent, known := m.dirs[m.bankOf(addr)-m.cfg.Cores].EntryView(addr)
	if !known {
		ent = coherence.DirEntrySnap{Owner: -1}
	}
	switch ent.State {
	case 0: // dirI: no private copies at all
		if writers+readers > 0 {
			m.violate("owner", fmt.Sprintf("line %d is dirI but held as %s", li, holdersString(holders)))
			return false
		}
	case 1: // dirS: no writable copies; holders within the sharer bits
		if writers > 0 {
			m.violate("owner", fmt.Sprintf("line %d is dirS but held as %s", li, holdersString(holders)))
			return false
		}
		for ci, st := range holders {
			if st != cache.StateI && ent.Sharers&(1<<uint(ci)) == 0 {
				m.violate("owner", fmt.Sprintf("line %d is dirS with sharers %#x but core %d holds a copy", li, ent.Sharers, ci))
				return false
			}
		}
	case 2: // dirM: exactly one owner; nobody else holds any copy
		for ci, st := range holders {
			if st != cache.StateI && ci != ent.Owner {
				m.violate("owner", fmt.Sprintf("line %d is dirM owned by %d but core %d holds state %d", li, ent.Owner, ci, st))
				return false
			}
		}
	}
	return true
}

// lineQuiesced reports whether no transaction touching the line is in
// flight: nothing queued in the mesh, no MSHR, no stalled external,
// and the directory entry neither blocked nor holding waiters.
func (m *Model) lineQuiesced(li int, addr uint64) bool {
	quiet := true
	m.mesh.ForEachPending(func(seq uint64, msg coherence.Msg) {
		if msg.Line == addr {
			quiet = false
		}
	})
	if !quiet {
		return false
	}
	for _, pc := range m.caches {
		if _, ok := pc.MSHRView(addr); ok {
			return false
		}
		if _, ok := pc.StalledView(addr); ok {
			return false
		}
	}
	ent, known := m.dirs[m.bankOf(addr)-m.cfg.Cores].EntryView(addr)
	if known && (ent.Blocked || len(ent.Waiting) > 0) {
		return false
	}
	return true
}

// checkTerminal runs at states with no enabled choices: either the
// programs all completed and every component is quiet, or something is
// stuck.
func (m *Model) checkTerminal() {
	if m.viol != nil {
		return
	}
	incomplete := 0
	for _, c := range m.cores {
		for _, st := range c.status {
			if st != opDone {
				incomplete++
			}
		}
	}
	for _, d := range m.dirs {
		for _, line := range d.LinesKnown() {
			ent, _ := d.EntryView(line)
			if ent.Blocked || len(ent.Waiting) > 0 {
				m.violate("stuck-blocked", fmt.Sprintf("terminal state with line %#x blocked (%d waiting, pend requestor %d); %d ops incomplete",
					line, len(ent.Waiting), ent.Pend.Requestor, incomplete))
				return
			}
		}
	}
	if incomplete > 0 {
		m.violate("deadlock", fmt.Sprintf("no enabled choice but %d ops incomplete: %s", incomplete, m.stuckDetail()))
		return
	}
	for ci, pc := range m.caches {
		if pc.PendingWork() {
			m.violate("deadlock", fmt.Sprintf("terminal state but core %d cache has pending work", ci))
			return
		}
	}
	for bi, d := range m.dirs {
		if d.PendingWork() {
			m.violate("stuck-blocked", fmt.Sprintf("terminal state but bank %d has pending work", bi))
			return
		}
	}
}

// stuckDetail names what a deadlocked leaf still waits on: each core's
// oldest miss and each blocked directory line.
func (m *Model) stuckDetail() string {
	var parts []string
	for ci, pc := range m.caches {
		if line, desc, ok := pc.OldestMiss(); ok {
			parts = append(parts, fmt.Sprintf("core %d: line %#x %s", ci, line, desc))
		}
	}
	for _, d := range m.dirs {
		parts = append(parts, d.DebugBlocked()...)
	}
	if len(parts) == 0 {
		return "no diagnostics"
	}
	return strings.Join(parts, "; ")
}

func holdersString(h []uint8) string {
	var sb strings.Builder
	names := [...]string{"I", "S", "E", "M"}
	for ci, st := range h {
		if ci > 0 {
			sb.WriteByte(' ')
		}
		n := "?"
		if int(st) < len(names) {
			n = names[st]
		}
		fmt.Fprintf(&sb, "c%d=%s", ci, n)
	}
	return sb.String()
}

// --- snapshot / restore ---

type coreSnap struct {
	status      []opStatus
	locked      uint64
	completions []completion
}

type modelSnap struct {
	clock    uint64
	bugFired bool
	cores    []coreSnap
	caches   []*cache.CacheSnap
	dirs     []*coherence.DirSnap
	mesh     interconnect.MeshSnap
}

func (m *Model) snapshot() *modelSnap {
	s := &modelSnap{
		clock:    m.clock,
		bugFired: m.bugFired,
		mesh:     m.mesh.Snapshot(),
	}
	for _, c := range m.cores {
		s.cores = append(s.cores, coreSnap{
			status:      append([]opStatus(nil), c.status...),
			locked:      c.locked,
			completions: append([]completion(nil), c.completions...),
		})
	}
	for _, pc := range m.caches {
		s.caches = append(s.caches, pc.Snapshot())
	}
	for _, d := range m.dirs {
		s.dirs = append(s.dirs, d.Snapshot())
	}
	return s
}

func (m *Model) restore(s *modelSnap) {
	m.clock = s.clock
	m.bugFired = s.bugFired
	m.mesh.Restore(s.mesh)
	for i, c := range m.cores {
		c.status = append(c.status[:0], s.cores[i].status...)
		c.locked = s.cores[i].locked
		c.completions = append(c.completions[:0], s.cores[i].completions...)
	}
	for i, pc := range m.caches {
		pc.Restore(s.caches[i])
	}
	for i, d := range m.dirs {
		d.Restore(s.dirs[i])
	}
	m.viol = nil
}
