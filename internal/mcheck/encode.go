package mcheck

import (
	"bytes"

	"rowsim/internal/coherence"
)

// Canonical state encoding. Two states are behaviorally equivalent —
// and must hash identically so the visited set merges them — when they
// differ only by (a) a relabeling of core ids (and the induced
// relabeling of bank ids and line addresses), or (b) absolute time.
// The encoding therefore walks the logical protocol state under every
// admissible (core permutation, line permutation) pair and keeps the
// lexicographically smallest byte string; no cycle counts, latencies
// or LRU clocks are emitted.
//
// A line permutation is admissible only when it acts consistently on
// banks: line l lives on bank l%banks, so mapping l to λ(l) forces
// bank l%banks to map to λ(l)%banks, and two lines of the same bank
// must agree. The network encoding emits each (src,dst) channel's
// queue separately in send order and discards cross-channel send
// order: under per-channel FIFO two states whose channels hold the
// same sequences are bisimilar even if their global send interleavings
// differ.

// perm is one admissible relabeling: cores[old] = new core id,
// lines[old] = new line index, banks[old] = new bank index.
type perm struct {
	cores, lines, banks []int
	invCores, invLines  []int
}

func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{{}}
	}
	var out [][]int
	var rec func(cur []int, used uint)
	rec = func(cur []int, used uint) {
		if len(cur) == n {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for i := 0; i < n; i++ {
			if used&(1<<i) == 0 {
				rec(append(cur, i), used|1<<i)
			}
		}
	}
	rec(make([]int, 0, n), 0)
	return out
}

func invert(p []int) []int {
	inv := make([]int, len(p))
	for old, new := range p {
		inv[new] = old
	}
	return inv
}

// buildPerms enumerates the admissible relabelings for the
// configuration. Counts are tiny (≤ 4 cores, ≤ 2 lines): at most 48
// pairs, each applied once per encoded state.
func buildPerms(cfg *Config) []perm {
	var out []perm
	for _, cp := range permutations(cfg.Cores) {
		for _, lp := range permutations(cfg.Lines) {
			banks := make([]int, cfg.Banks)
			for b := range banks {
				banks[b] = b
			}
			ok := true
			for old, new := range lp {
				ob, nb := old%cfg.Banks, new%cfg.Banks
				if banks[ob] != ob && banks[ob] != nb {
					ok = false
					break
				}
				banks[ob] = nb
			}
			if !ok {
				continue
			}
			// banks must itself be a permutation (two source banks
			// cannot collapse onto one).
			seen := 0
			for _, b := range banks {
				seen |= 1 << b
			}
			if seen != 1<<cfg.Banks-1 {
				continue
			}
			out = append(out, perm{
				cores: cp, lines: lp, banks: banks,
				invCores: invert(cp), invLines: invert(lp),
			})
		}
	}
	return out
}

type encoder struct {
	buf []byte
}

func (e *encoder) b(v byte)    { e.buf = append(e.buf, v) }
func (e *encoder) bool(v bool) { e.buf = append(e.buf, boolByte(v)) }
func (e *encoder) i(v int) {
	e.buf = append(e.buf, byte(v), byte(v>>8))
}
func (e *encoder) u64(v uint64) {
	e.buf = append(e.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// relNode maps a network node id through the permutation.
func (m *Model) relNode(p *perm, node int) int {
	if node < m.cfg.Cores {
		return p.cores[node]
	}
	return m.cfg.Cores + p.banks[node-m.cfg.Cores]
}

func (m *Model) encodeMsg(e *encoder, p *perm, msg coherence.Msg) {
	e.b(byte(msg.Type))
	e.b(byte(p.lines[m.lineIdx(msg.Line)]))
	e.b(byte(m.relNode(p, msg.Src)))
	e.b(byte(m.relNode(p, msg.Dst)))
	e.b(byte(m.relNode(p, msg.Requestor)))
	e.b(byte(msg.Grant))
	e.i(msg.AckCount)
	e.bool(msg.FromPrivate)
}

// encodeWith emits the full logical state under one relabeling.
func (m *Model) encodeWith(e *encoder, p *perm) {
	e.bool(m.bugFired)
	e.bool(m.cfg.Lazy)

	for newC := 0; newC < m.cfg.Cores; newC++ {
		c := m.cores[p.invCores[newC]]
		e.b(byte(len(c.prog)))
		for _, op := range c.prog {
			e.b(byte(op.Kind))
			e.b(byte(p.lines[op.Line]))
		}
		for _, st := range c.status {
			e.b(byte(st))
		}
		mask := 0
		for li := 0; li < m.cfg.Lines; li++ {
			if c.locked&(1<<li) != 0 {
				mask |= 1 << p.lines[li]
			}
		}
		e.b(byte(mask))
		e.b(byte(len(c.completions)))
		for _, comp := range c.completions {
			e.b(byte(opOfTag(comp.tag)))
			e.bool(comp.validAtResp)
		}
	}

	for newC := 0; newC < m.cfg.Cores; newC++ {
		pc := m.caches[p.invCores[newC]]
		for newLi := 0; newLi < m.cfg.Lines; newLi++ {
			addr := m.lineAddr(p.invLines[newLi])
			l1, l2 := pc.LevelStates(addr)
			e.b(l1)
			e.b(l2)
			if ms, ok := pc.MSHRView(addr); ok {
				e.b(1)
				e.bool(ms.Write)
				e.bool(ms.DataArrived)
				e.b(byte(ms.Grant))
				e.bool(ms.FromPrivate)
				e.i(ms.PendingAcks)
				e.b(byte(len(ms.Waiters)))
				for _, w := range ms.Waiters {
					e.b(byte(opOfTag(w.Tag)))
					e.bool(w.Write)
				}
			} else {
				e.b(0)
			}
			if msg, ok := pc.StalledView(addr); ok {
				e.b(1)
				m.encodeMsg(e, p, msg)
			} else {
				e.b(0)
			}
		}
	}

	for newB := 0; newB < m.cfg.Banks; newB++ {
		for newLi := 0; newLi < m.cfg.Lines; newLi++ {
			oldLi := p.invLines[newLi]
			addr := m.lineAddr(oldLi)
			oldB := m.bankOf(addr) - m.cfg.Cores
			if p.banks[oldB] != newB {
				continue
			}
			ent, known := m.dirs[oldB].EntryView(addr)
			if !known {
				e.b(0)
				continue
			}
			e.b(1)
			e.b(ent.State)
			if ent.Owner >= 0 && ent.Owner < m.cfg.Cores {
				e.b(byte(p.cores[ent.Owner]))
			} else {
				e.b(0xff)
			}
			sh := uint64(0)
			for ci := 0; ci < m.cfg.Cores; ci++ {
				if ent.Sharers&(1<<uint(ci)) != 0 {
					sh |= 1 << uint(p.cores[ci])
				}
			}
			e.u64(sh)
			e.bool(ent.Blocked)
			if ent.Blocked {
				pend := ent.Pend
				e.b(byte(p.cores[pend.Requestor]))
				e.bool(pend.IsWrite)
			}
			e.b(byte(len(ent.Waiting)))
			for _, msg := range ent.Waiting {
				m.encodeMsg(e, p, msg)
			}
		}
	}

	m.pendBuf = m.pendBuf[:0]
	m.mesh.ForEachPending(func(seq uint64, msg coherence.Msg) {
		m.pendBuf = append(m.pendBuf, msg)
	})
	// Per-channel queues in relabeled channel order; cross-channel send
	// order deliberately discarded.
	for newSrc := 0; newSrc < m.nodes; newSrc++ {
		for newDst := 0; newDst < m.nodes; newDst++ {
			n := 0
			for _, msg := range m.pendBuf {
				if m.relNode(p, msg.Src) == newSrc && m.relNode(p, msg.Dst) == newDst {
					n++
				}
			}
			e.b(byte(n))
			for _, msg := range m.pendBuf {
				if m.relNode(p, msg.Src) == newSrc && m.relNode(p, msg.Dst) == newDst {
					m.encodeMsg(e, p, msg)
				}
			}
		}
	}
}

// stateKey returns the canonical 128-bit key of the current state: the
// lexicographic minimum over admissible relabelings, FNV-hashed twice
// with independent mixing so collisions are negligible while staying
// deterministic across runs (explored-state counts are compared in CI).
func (m *Model) stateKey(perms []perm) [2]uint64 {
	var best []byte
	e := encoder{buf: m.encBuf[:0]}
	for i := range perms {
		start := len(e.buf)
		m.encodeWith(&e, &perms[i])
		cand := e.buf[start:]
		if best == nil || bytes.Compare(cand, best) < 0 {
			best = cand
		} else {
			e.buf = e.buf[:start]
		}
	}
	m.encBuf = e.buf[:0]
	h1 := uint64(14695981039346656037)
	h2 := uint64(14695981039346656037)
	for _, c := range best {
		h1 = (h1 ^ uint64(c)) * 1099511628211
		h2 = (h2 * 1099511628211) ^ (uint64(c) + 0x9e37)
	}
	return [2]uint64{h1, h2}
}
