package coherence

import "math/bits"

// A ref names an entry of a lineTable: chunk<<refShift | offset.
const (
	refShift = 10
	maxChunk = 1 << refShift // entries in the largest chunk
	minChunk = 8             // entries in a fresh table's first chunk
	minIndex = 8             // slots in the smallest index

	// hashMul is 2^64 divided by the golden ratio: Fibonacci hashing,
	// whose top bits spread the bank's line numbers, which share their
	// low bits, over the index.
	hashMul = 0x9E3779B97F4A7C15
)

// lineTable holds a bank's directory entries by value. The entries sit
// in insertion order in chunks that never move, so a *dirEntry stays
// valid while the table grows; each new chunk is as large as the table
// so far (between minChunk and maxChunk entries). The index is an
// open-addressed table of refs, probed linearly from the line's hash
// and kept at most half full, so the whole layout is a function of the
// lines inserted and their order.
type lineTable struct {
	chunks [][]dirEntry
	n      int
	index  []int32 // 1 + the ref of an entry; 0 is an empty slot
	shift  uint    // 64 - log2(len(index))
}

// newLineTable returns an empty table whose index takes n entries
// without growing.
func newLineTable(n int) lineTable {
	size := minIndex
	for size < 2*n {
		size <<= 1
	}
	var t lineTable
	t.resize(size)
	return t
}

// resize replaces the index with one of size slots, a power of two,
// and indexes every entry in it again.
func (t *lineTable) resize(size int) {
	t.index = make([]int32, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for k, c := range t.chunks {
		for off := range c {
			t.place(c[off].line, int32(k<<refShift|off))
		}
	}
}

func (t *lineTable) at(ref int32) *dirEntry {
	return &t.chunks[ref>>refShift][ref&(maxChunk-1)]
}

// place puts ref in the first empty slot at or after line's hash.
func (t *lineTable) place(line uint64, ref int32) {
	mask := len(t.index) - 1
	i := int(line * hashMul >> t.shift)
	for t.index[i] != 0 {
		i = (i + 1) & mask
	}
	t.index[i] = ref + 1
}

// find returns line's entry, or nil when the table has none.
//
//rowlint:noalloc
func (t *lineTable) find(line uint64) *dirEntry {
	mask := len(t.index) - 1
	for i := int(line * hashMul >> t.shift); ; i = (i + 1) & mask {
		r := t.index[i]
		if r == 0 {
			return nil
		}
		if e := t.at(r - 1); e.line == line {
			return e
		}
	}
}

// get returns line's entry, adding an idle dirI one when the table has
// none.
func (t *lineTable) get(line uint64) *dirEntry {
	if e := t.find(line); e != nil {
		return e
	}
	return t.add(line, min(max(t.n, minChunk), maxChunk))
}

// add appends an idle dirI entry for line, which the table must not
// hold, and indexes it. A full last chunk is followed by a new one of
// room entries (at most maxChunk).
func (t *lineTable) add(line uint64, room int) *dirEntry {
	if 2*(t.n+1) > len(t.index) {
		t.resize(2 * len(t.index))
	}
	k := len(t.chunks) - 1
	if k < 0 || len(t.chunks[k]) == cap(t.chunks[k]) {
		t.chunks = append(t.chunks, make([]dirEntry, 0, min(room, maxChunk)))
		k++
	}
	off := len(t.chunks[k])
	t.chunks[k] = append(t.chunks[k], dirEntry{line: line, owner: -1})
	t.n++
	t.place(line, int32(k<<refShift|off))
	return &t.chunks[k][off]
}
