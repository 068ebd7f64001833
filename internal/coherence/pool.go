package coherence

// MsgPool recycles Msg values so the protocol's steady state allocates
// nothing: every send draws from the free list and every consumer
// returns the message once it is fully processed. A pool is owned by
// exactly one System and is NOT safe for concurrent use — sharing one
// across concurrently running systems would leak protocol state between
// independent simulations (and race). Components tolerate a nil pool
// (direct component tests, micro-benchmarks): Get falls back to the
// allocator and Put drops the message for the GC.
//
// Ownership discipline: the sender builds the message (Get or New) and
// hands it to the network; the final consumer releases it (Put) after
// the message can no longer be referenced. Components that retain a
// message across cycles — the directory's per-line waiting queue, the
// private cache's stalled-external slot — release it when the retained
// reference is served. A message must never be Put twice, and never
// used after Put.
type MsgPool struct {
	free []*Msg

	// gets/puts count every hand-out and release, pool-backed or not,
	// so Outstanding is exactly the number of live messages whose
	// ownership some component still holds. The end-of-run conservation
	// check (sim.System) asserts it against the in-flight and retained
	// populations; a mismatch means a consume-or-retain bug.
	gets, puts int64
}

// Get returns a zeroed message, recycling a released one when possible.
func (p *MsgPool) Get() *Msg {
	if p == nil {
		return new(Msg)
	}
	p.gets++
	if len(p.free) == 0 {
		return new(Msg)
	}
	m := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	return m
}

// New returns a pooled message initialized to v (the literal-style
// construction the protocol agents use: pool.New(Msg{Type: ..., ...})).
func (p *MsgPool) New(v Msg) *Msg {
	m := p.Get()
	*m = v
	return m
}

// Put releases a fully consumed message back to the free list. The
// message is zeroed immediately so stale protocol state can never leak
// into a later transaction through reuse.
func (p *MsgPool) Put(m *Msg) {
	if p == nil || m == nil {
		return
	}
	p.puts++
	*m = Msg{}
	p.free = append(p.free, m)
}

// Outstanding reports the number of messages handed out and not yet
// released (gets minus puts). At any quiescent point this must equal
// the population with a live owner: in flight in the network plus
// retained in stall/waiting structures. Anything above that has leaked.
func (p *MsgPool) Outstanding() int64 {
	if p == nil {
		return 0
	}
	return p.gets - p.puts
}
