// Package sram provides a generic set-associative tag array with LRU
// replacement, shared by the private caches, the shared L3 and the
// instruction cache. It tracks presence and per-line metadata; data
// values are not simulated (the model is timing-only).
//
// Storage follows use, not capacity: an array holds a four-byte slot
// per set and takes a set's ways from its own backing store the first
// time a line is inserted into that set. A run that touches 3% of an
// L3 bank's sets allocates, clears and snapshots 3% of a bank.
package sram

import (
	"fmt"
	"math"
)

// Line is one array entry, 16 bytes (pinned by TestLineSize).
type Line struct {
	Tag   uint64 // full line address (low bits cleared by the caller)
	LRU   uint32 // higher = more recently used within the set
	Meta  uint8  // caller-defined metadata (e.g. coherence state)
	Valid bool
}

// The backing store grows by chunks of chunkBlocks sets' worth of ways
// (one chunk when the array has fewer sets than that). A chunk never
// moves once allocated, so growth copies nothing but the chunk table
// and *Line results stay valid across it.
const (
	chunkShift  = 6
	chunkBlocks = 1 << chunkShift
)

// Array is a set-associative array indexed by line address.
type Array struct {
	sets      int
	ways      int
	lineShift uint

	// slot[s] is 1 + the number of the block holding set s's ways, or
	// 0 while nothing has been inserted into s: such a set is all
	// misses and owns no storage. Block b is the ways-long run at
	// offset (b%chunkBlocks)*ways of chunks[b/chunkBlocks]; blocks are
	// handed out in order, and storage past the last one is zero.
	//
	// Four bytes a set is the measured choice: a slice header per set
	// saves a load and wins a single-array benchmark, but with 32 cores'
	// arrays live the 24-byte headers fall out of the host's cache and
	// the run loop is 5% slower. A header per group of 8 sets bought
	// nothing at 32 cores and cost the 8-core cells, whose L3 reaches
	// one set in 8 (deviation 6 in DESIGN.md).
	slot   []int32
	chunks [][]Line
	blocks int

	// clock stamps LRU. Only stamp order within a set is observable,
	// so when it would pass 2^32 tick renumbers the stamps.
	clock  uint32
	hits   uint64
	misses uint64
}

// New builds an array with the given geometry. sizeBytes must be
// divisible by ways*lineBytes and yield a power-of-two set count.
func New(sizeBytes, ways, lineBytes int) *Array {
	if sizeBytes <= 0 || ways <= 0 || lineBytes <= 0 || sizeBytes%(ways*lineBytes) != 0 {
		panic(fmt.Sprintf("sram: bad geometry size=%d ways=%d line=%d", sizeBytes, ways, lineBytes))
	}
	sets := sizeBytes / (ways * lineBytes)
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("sram: set count %d is not a positive power of two", sets))
	}
	shift := uint(0)
	for 1<<shift < lineBytes {
		shift++
	}
	return &Array{
		sets:      sets,
		ways:      ways,
		lineShift: shift,
		slot:      make([]int32, sets),
	}
}

// Sets returns the number of sets.
func (a *Array) Sets() int { return a.sets }

func (a *Array) setIndex(line uint64) int {
	return int((line >> a.lineShift) & uint64(a.sets-1))
}

// block returns the ways of block b.
func (a *Array) block(b int) []Line {
	off := (b & (chunkBlocks - 1)) * a.ways
	return a.chunks[b>>chunkShift][off : off+a.ways]
}

// set returns the ways of the line's set, or nil when nothing was ever
// inserted into it — which every read path scans as a miss.
func (a *Array) set(line uint64) []Line {
	b := a.slot[a.setIndex(line)]
	if b == 0 {
		return nil
	}
	return a.block(int(b - 1))
}

// own returns the ways of set s, taking a block for it (and a chunk
// for the block) on the set's first use.
func (a *Array) own(s int) []Line {
	if a.slot[s] == 0 {
		if a.blocks>>chunkShift == len(a.chunks) {
			a.chunks = append(a.chunks, make([]Line, min(chunkBlocks, a.sets)*a.ways))
		}
		a.blocks++
		a.slot[s] = int32(a.blocks)
	}
	return a.block(int(a.slot[s] - 1))
}

// Lookup finds a line and, when touch is true, refreshes its LRU
// position. It returns a pointer valid until the next Insert on the
// same set, or nil on miss.
func (a *Array) Lookup(line uint64, touch bool) *Line {
	set := a.set(line)
	for i := range set {
		// Tag first: nearly every way fails on it, with one load.
		if set[i].Tag == line && set[i].Valid {
			if touch {
				set[i].LRU = a.tick()
			}
			a.hits++
			return &set[i]
		}
	}
	a.misses++
	return nil
}

// Contains reports presence without disturbing LRU or hit/miss stats.
func (a *Array) Contains(line uint64) bool {
	return a.Peek(line) != nil
}

// Peek returns the line without disturbing LRU or stats.
func (a *Array) Peek(line uint64) *Line {
	set := a.set(line)
	for i := range set {
		if set[i].Tag == line && set[i].Valid {
			return &set[i]
		}
	}
	return nil
}

// Insert installs a line, evicting the LRU way if the set is full.
// It returns the evicted line's (tag, meta) with evicted=true when a
// valid line was displaced. Inserting an already-present line just
// refreshes it.
func (a *Array) Insert(line uint64, meta uint8) (evictedTag uint64, evictedMeta uint8, evicted bool) {
	evictedTag, evictedMeta, evicted, _ = a.InsertVeto(line, meta, nil)
	return evictedTag, evictedMeta, evicted
}

// Invalidate removes a line; it reports whether the line was present
// and returns its metadata.
func (a *Array) Invalidate(line uint64) (meta uint8, present bool) {
	l := a.Peek(line)
	if l == nil {
		return 0, false
	}
	meta = l.Meta
	*l = Line{}
	return meta, true
}

// Hits returns the number of Lookup hits.
func (a *Array) Hits() uint64 { return a.hits }

// Misses returns the number of Lookup misses.
func (a *Array) Misses() uint64 { return a.misses }

// InsertVeto installs a line like Insert but never evicts a line for
// which veto returns true (e.g. a cacheline locked by an in-flight
// atomic). When every candidate way is vetoed it reports ok=false and
// leaves the array untouched; the caller should then treat the fill as
// uncacheable. A nil veto vetoes nothing.
func (a *Array) InsertVeto(line uint64, meta uint8, veto func(tag uint64) bool) (evictedTag uint64, evictedMeta uint8, evicted, ok bool) {
	set := a.own(a.setIndex(line))
	stamp := a.tick()
	// Already present: refresh.
	for i := range set {
		if set[i].Tag == line && set[i].Valid {
			set[i].Meta = meta
			set[i].LRU = stamp
			return 0, 0, false, true
		}
	}
	// Free way.
	for i := range set {
		if !set[i].Valid {
			set[i] = Line{Valid: true, Tag: line, Meta: meta, LRU: stamp}
			return 0, 0, false, true
		}
	}
	// Evict the LRU way among those not vetoed: take the ways in
	// ascending (LRU, index) order and ask veto about one at a time, so
	// the usual eviction costs one call, not one per way.
	for prev := -1; ; {
		victim := -1
		for i := range set {
			if prev >= 0 && (set[i].LRU < set[prev].LRU || (set[i].LRU == set[prev].LRU && i <= prev)) {
				continue // vetoed already
			}
			if victim < 0 || set[i].LRU < set[victim].LRU {
				victim = i
			}
		}
		if victim < 0 {
			return 0, 0, false, false
		}
		if veto == nil || !veto(set[victim].Tag) {
			evictedTag, evictedMeta = set[victim].Tag, set[victim].Meta
			set[victim] = Line{Valid: true, Tag: line, Meta: meta, LRU: stamp}
			return evictedTag, evictedMeta, true, true
		}
		prev = victim
	}
}

// tick advances the LRU clock and returns the new stamp.
func (a *Array) tick() uint32 {
	if a.clock == math.MaxUint32 {
		a.renumber()
	}
	a.clock++
	return a.clock
}

// renumber rewrites every set's valid stamps as 1..n in their current
// order and restarts the clock from ways. Victims are chosen by stamp
// order within a set alone, so every later eviction is the one a
// 64-bit clock would have picked.
func (a *Array) renumber() {
	stamps, ranks := make([]uint64, 0, a.ways), make([]uint32, a.ways)
	for _, b := range a.slot {
		if b == 0 {
			continue
		}
		set := a.block(int(b - 1))
		stamps = stamps[:0]
		for i := range set {
			if set[i].Valid {
				stamps = append(stamps, uint64(set[i].LRU))
			}
		}
		rankStamps(stamps, ranks)
		k := 0
		for i := range set {
			if set[i].Valid {
				set[i].LRU = ranks[k]
				k++
			}
		}
	}
	a.clock = uint32(a.ways)
}

// rankStamps sets ranks[i] to the 1-based rank of stamps[i] in
// ascending (stamp, index) order, the order eviction takes ways in.
func rankStamps(stamps []uint64, ranks []uint32) {
	for i, si := range stamps {
		r := uint32(1)
		for j, sj := range stamps {
			if sj < si || (sj == si && j < i) {
				r++
			}
		}
		ranks[i] = r
	}
}

// ForEach calls fn for every valid line in the array, in ascending
// (set, way) order (diagnostics, invariant checking, snapshots).
func (a *Array) ForEach(fn func(tag uint64, meta uint8)) {
	for _, b := range a.slot {
		if b == 0 {
			continue
		}
		set := a.block(int(b - 1))
		for i := range set {
			if set[i].Valid {
				fn(set[i].Tag, set[i].Meta)
			}
		}
	}
}
