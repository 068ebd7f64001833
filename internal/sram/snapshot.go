package sram

import (
	"fmt"
	"math"
)

// Snap is a deep copy of an Array's mutable state: its valid lines in
// ascending position, the LRU clock and the stats. The lines are
// stored column-wise — entry i of Pos, Tag, LRU and Meta is one line,
// Pos being set*ways + way, its index in a row-major array — and every
// stored line is valid. Columns let the checkpoint codec write one
// field of every line in one loop, which is why a snapshot is not one
// record per line. The model checker (internal/mcheck) captures one
// per array before exploring a branch and restores it when
// backtracking; checkpoints serialize it to disk, which is why every
// field is exported. The geometry (sets, ways, line shift) is
// construction-time state and is not copied; a Snap may only be
// restored into the array it was taken from, or one built with
// identical geometry. Which block of the backing store a set occupies
// is not state either: Restore hands blocks out afresh. Clock and LRU
// are 64-bit, wider than the array's own: Restore renumbers stamps
// that do not fit.
type Snap struct {
	Pos    []uint32
	Tag    []uint64
	LRU    []uint64
	Meta   []uint8
	Clock  uint64
	Hits   uint64
	Misses uint64
}

// Snapshot captures the array's contents, LRU clock and stats. The
// columns are nil when the array holds no valid line.
func (a *Array) Snapshot() Snap {
	s := Snap{Clock: uint64(a.clock), Hits: a.hits, Misses: a.misses}
	n := 0
	a.ForEach(func(uint64, uint8) { n++ })
	if n == 0 {
		return s
	}
	s.Pos, s.Tag, s.LRU, s.Meta = make([]uint32, 0, n), make([]uint64, 0, n), make([]uint64, 0, n), make([]uint8, 0, n)
	for set, b := range a.slot {
		if b == 0 {
			continue
		}
		for way, l := range a.block(int(b - 1)) {
			if l.Valid {
				s.Pos = append(s.Pos, uint32(set*a.ways+way))
				s.Tag = append(s.Tag, l.Tag)
				s.LRU = append(s.LRU, uint64(l.LRU))
				s.Meta = append(s.Meta, l.Meta)
			}
		}
	}
	return s
}

// Restore rewinds the array to a previously captured Snap, whatever it
// held before. It panics on a Snap that cannot have come from an array
// of this geometry: columns of unequal length, a position out of
// range, out of order or repeated, or a tag that belongs to another
// set. A Snap whose clock or stamps do not fit in 32 bits has each
// set's stamps renumbered 1..n in their order, as tick would have.
func (a *Array) Restore(s Snap) {
	n := len(s.Pos)
	if len(s.Tag) != n || len(s.LRU) != n || len(s.Meta) != n {
		panic(fmt.Sprintf("sram: restoring columns of %d positions, %d tags, %d LRU stamps and %d metas", n, len(s.Tag), len(s.LRU), len(s.Meta)))
	}
	clear(a.slot)
	for _, c := range a.chunks[:(a.blocks+chunkBlocks-1)>>chunkShift] {
		clear(c)
	}
	a.blocks = 0
	renumber := s.Clock > math.MaxUint32
	for _, l := range s.LRU {
		renumber = renumber || l > math.MaxUint32
	}
	var ranks []uint32
	if renumber {
		ranks = setRanks(s, a.ways)
	}
	prev := -1
	for i, p := range s.Pos {
		pos, tag := int(p), s.Tag[i]
		set := pos / a.ways
		switch {
		case pos >= a.sets*a.ways:
			panic(fmt.Sprintf("sram: restoring line at position %d into array of %d", pos, a.sets*a.ways))
		case pos <= prev:
			panic(fmt.Sprintf("sram: restoring position %d after position %d", pos, prev))
		case a.setIndex(tag) != set:
			panic(fmt.Sprintf("sram: restoring line %#x into set %d, it indexes set %d", tag, set, a.setIndex(tag)))
		}
		lru := uint32(s.LRU[i])
		if renumber {
			lru = ranks[i]
		}
		prev = pos
		a.own(set)[pos%a.ways] = Line{Tag: tag, LRU: lru, Meta: s.Meta[i], Valid: true}
	}
	a.clock = uint32(s.Clock)
	if renumber {
		a.clock = uint32(a.ways)
	}
	a.hits = s.Hits
	a.misses = s.Misses
}

// setRanks is s.LRU renumbered set by set: each stamp's 1-based rank
// among its set's lines, a set's lines being a run of Pos.
func setRanks(s Snap, ways int) []uint32 {
	n := len(s.Pos)
	ranks := make([]uint32, n)
	for lo, w := 0, uint32(ways); lo < n; {
		hi := lo + 1
		for hi < n && s.Pos[hi]/w == s.Pos[lo]/w {
			hi++
		}
		rankStamps(s.LRU[lo:hi], ranks[lo:hi])
		lo = hi
	}
	return ranks
}
