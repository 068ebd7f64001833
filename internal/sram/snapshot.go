package sram

import "fmt"

// SnapLine is one valid line of a Snap and where it sits: Pos is
// set*ways + way, the line's index in a row-major array.
type SnapLine struct {
	Pos int
	Line
}

// Snap is a deep copy of an Array's mutable state: its valid lines in
// ascending position, the LRU clock and the stats. The model checker
// (internal/mcheck) captures one per array before exploring a branch
// and restores it when backtracking; checkpoints serialize it to disk,
// which is why every field is exported. The geometry (sets, ways, line
// shift) is construction-time state and is not copied; a Snap may only
// be restored into the array it was taken from, or one built with
// identical geometry. Which block of the backing store a set occupies
// is not state either: Restore hands blocks out afresh.
type Snap struct {
	Lines  []SnapLine
	Clock  uint64
	Hits   uint64
	Misses uint64
}

// Snapshot captures the array's contents, LRU clock and stats. Lines
// is nil when the array holds no valid line.
func (a *Array) Snapshot() Snap {
	s := Snap{Clock: a.clock, Hits: a.hits, Misses: a.misses}
	n := 0
	a.ForEach(func(uint64, uint8) { n++ })
	if n == 0 {
		return s
	}
	s.Lines = make([]SnapLine, 0, n)
	for set, b := range a.slot {
		if b == 0 {
			continue
		}
		for way, l := range a.block(int(b - 1)) {
			if l.Valid {
				s.Lines = append(s.Lines, SnapLine{Pos: set*a.ways + way, Line: l})
			}
		}
	}
	return s
}

// Restore rewinds the array to a previously captured Snap, whatever it
// held before. It panics on a Snap that cannot have come from an array
// of this geometry: a position out of range, out of order or repeated,
// a line that is not valid, or one whose tag belongs to another set.
func (a *Array) Restore(s Snap) {
	clear(a.slot)
	for _, c := range a.chunks[:(a.blocks+chunkBlocks-1)>>chunkShift] {
		clear(c)
	}
	a.blocks = 0
	prev := -1
	for i := range s.Lines {
		r := &s.Lines[i]
		set := r.Pos / a.ways
		switch {
		case r.Pos < 0 || r.Pos >= a.sets*a.ways:
			panic(fmt.Sprintf("sram: restoring line at position %d into array of %d", r.Pos, a.sets*a.ways))
		case r.Pos <= prev:
			panic(fmt.Sprintf("sram: restoring position %d after position %d", r.Pos, prev))
		case !r.Valid:
			panic(fmt.Sprintf("sram: restoring invalid line at position %d", r.Pos))
		case a.setIndex(r.Tag) != set:
			panic(fmt.Sprintf("sram: restoring line %#x into set %d, it indexes set %d", r.Tag, set, a.setIndex(r.Tag)))
		}
		prev = r.Pos
		a.own(set)[r.Pos%a.ways] = r.Line
	}
	a.clock = s.Clock
	a.hits = s.Hits
	a.misses = s.Misses
}
