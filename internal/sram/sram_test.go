package sram

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

	"rowsim/internal/xrand"
)

func line(i uint64) uint64 { return i * 64 }

func TestLookupMissThenInsertHit(t *testing.T) {
	a := New(4096, 4, 64)
	if a.Lookup(line(1), true) != nil {
		t.Fatal("unexpected hit on empty array")
	}
	a.Insert(line(1), 7)
	l := a.Lookup(line(1), true)
	if l == nil {
		t.Fatal("expected hit after insert")
	}
	if l.Meta != 7 {
		t.Fatalf("meta = %d, want 7", l.Meta)
	}
	if a.Hits() != 1 || a.Misses() != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", a.Hits(), a.Misses())
	}
}

func TestInsertEvictsLRU(t *testing.T) {
	// 2 ways, 1 set: third insert evicts the least recently used.
	a := New(128, 2, 64)
	a.Insert(line(0), 0)
	a.Insert(line(1), 0)
	a.Lookup(line(0), true) // line 0 now MRU
	evTag, _, evicted := a.Insert(line(2), 0)
	if !evicted {
		t.Fatal("expected an eviction")
	}
	if evTag != line(1) {
		t.Fatalf("evicted %#x, want %#x (the LRU)", evTag, line(1))
	}
	if !a.Contains(line(0)) || !a.Contains(line(2)) {
		t.Fatal("expected lines 0 and 2 resident")
	}
}

func TestInsertExistingRefreshes(t *testing.T) {
	a := New(128, 2, 64)
	a.Insert(line(0), 1)
	a.Insert(line(1), 1)
	a.Insert(line(0), 5) // refresh, now line 1 is LRU
	if _, _, ev := a.Insert(line(0), 5); ev {
		t.Fatal("reinsert must not evict")
	}
	evTag, _, evicted := a.Insert(line(2), 0)
	if !evicted || evTag != line(1) {
		t.Fatalf("evicted (%#x,%v), want line 1", evTag, evicted)
	}
	if l := a.Peek(line(0)); l == nil || l.Meta != 5 {
		t.Fatal("refresh did not update metadata")
	}
}

func TestInvalidate(t *testing.T) {
	a := New(4096, 4, 64)
	a.Insert(line(3), 9)
	meta, present := a.Invalidate(line(3))
	if !present || meta != 9 {
		t.Fatalf("invalidate = (%d,%v), want (9,true)", meta, present)
	}
	if _, present = a.Invalidate(line(3)); present {
		t.Fatal("double invalidate reported present")
	}
	if a.Contains(line(3)) {
		t.Fatal("line still present after invalidate")
	}
}

func TestInsertVetoAvoidsLockedLine(t *testing.T) {
	a := New(128, 2, 64) // 1 set, 2 ways
	a.Insert(line(0), 0)
	a.Insert(line(1), 0)
	locked := map[uint64]bool{line(0): true}
	veto := func(tag uint64) bool { return locked[tag] }
	evTag, _, evicted, ok := a.InsertVeto(line(2), 0, veto)
	if !ok || !evicted {
		t.Fatalf("InsertVeto = (ok=%v,evicted=%v), want both true", ok, evicted)
	}
	if evTag != line(1) {
		t.Fatalf("evicted %#x, want the unlocked line 1", evTag)
	}
	if !a.Contains(line(0)) {
		t.Fatal("locked line was evicted")
	}
}

func TestInsertVetoAllLockedBypasses(t *testing.T) {
	a := New(128, 2, 64)
	a.Insert(line(0), 0)
	a.Insert(line(1), 0)
	veto := func(uint64) bool { return true }
	_, _, _, ok := a.InsertVeto(line(2), 0, veto)
	if ok {
		t.Fatal("expected bypass when every way is vetoed")
	}
	if a.Contains(line(2)) {
		t.Fatal("bypassed fill must not be installed")
	}
}

func TestSetIsolation(t *testing.T) {
	// Lines in different sets never evict each other.
	a := New(8192, 2, 64) // 64 sets
	for i := uint64(0); i < 64; i++ {
		if _, _, ev := a.Insert(line(i), 0); ev {
			t.Fatalf("insert into distinct set %d evicted", i)
		}
	}
	for i := uint64(0); i < 64; i++ {
		if !a.Contains(line(i)) {
			t.Fatalf("line %d missing", i)
		}
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, g := range []struct{ size, ways, line int }{
		{0, 4, 64}, {4096, 0, 64}, {4096, 4, 0}, {4096 + 64, 4, 64}, // non-pow2 sets
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d,%d) did not panic", g.size, g.ways, g.line)
				}
			}()
			New(g.size, g.ways, g.line)
		}()
	}
}

// TestQuickCapacityInvariant: regardless of the insert sequence, the
// number of resident lines never exceeds capacity, and the most
// recently inserted line is always resident.
func TestQuickCapacityInvariant(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		a := New(4096, 4, 64) // 64 lines capacity
		rng := xrand.New(seed)
		var last uint64
		resident := make(map[uint64]bool)
		for i := 0; i < int(n%512)+1; i++ {
			l := line(uint64(rng.Intn(256)))
			evTag, _, ev := a.Insert(l, 0)
			resident[l] = true
			if ev {
				delete(resident, evTag)
			}
			last = l
		}
		if !a.Contains(last) {
			return false
		}
		count := 0
		for l := range resident {
			if a.Contains(l) {
				count++
			} else {
				return false // bookkeeping and array disagree
			}
		}
		return count <= 64
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickLookupAfterInsert: lookups of inserted lines always hit
// until an eviction removes them (tracked via returned evictions).
func TestQuickLookupAfterInsert(t *testing.T) {
	f := func(seed uint64) bool {
		a := New(2048, 2, 64)
		rng := xrand.New(seed)
		live := make(map[uint64]uint8)
		for i := 0; i < 300; i++ {
			l := line(uint64(rng.Intn(128)))
			meta := uint8(rng.Intn(4))
			evTag, _, ev := a.Insert(l, meta)
			if ev {
				delete(live, evTag)
			}
			live[l] = meta
		}
		for l, meta := range live {
			got := a.Peek(l)
			if got == nil || got.Meta != meta {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// dense is the layout this package had before sets were populated on
// first insert — every way of every set allocated by the constructor,
// the set found by arithmetic, a 64-bit LRU clock — kept as the
// reference model the lazy Array is compared against. It shares no
// code with Array.
type dense struct {
	sets, ways          int
	lines               []denseLine // sets*ways, row-major
	clock, hits, misses uint64
}

type denseLine struct {
	Tag   uint64
	LRU   uint64
	Meta  uint8
	Valid bool
}

func newDense(sizeBytes, ways, lineBytes int) *dense {
	sets := sizeBytes / (ways * lineBytes)
	return &dense{sets: sets, ways: ways, lines: make([]denseLine, sets*ways)}
}

// wrapped reports whether the reference's clock has passed 2^32, after
// which the array's stamps are renumbered and only their order within
// a set matches.
func (d *dense) wrapped() bool { return d.clock > math.MaxUint32 }

// shift adds k to the clock and to every valid line's stamp, which
// changes no decision the reference makes.
func (d *dense) shift(k uint64) {
	d.clock += k
	for i := range d.lines {
		if d.lines[i].Valid {
			d.lines[i].LRU += k
		}
	}
}

func (d *dense) set(line uint64) []denseLine {
	s := int(line / 64 % uint64(d.sets))
	return d.lines[s*d.ways : (s+1)*d.ways]
}

func (d *dense) peek(line uint64) *denseLine {
	set := d.set(line)
	for i := range set {
		if set[i].Valid && set[i].Tag == line {
			return &set[i]
		}
	}
	return nil
}

func (d *dense) lookup(line uint64, touch bool) *denseLine {
	l := d.peek(line)
	if l == nil {
		d.misses++
		return nil
	}
	if touch {
		d.clock++
		l.LRU = d.clock
	}
	d.hits++
	return l
}

func (d *dense) insert(line uint64, meta uint8, veto func(uint64) bool) (uint64, uint8, bool, bool) {
	set := d.set(line)
	d.clock++
	if l := d.peek(line); l != nil {
		l.Meta, l.LRU = meta, d.clock
		return 0, 0, false, true
	}
	victim := -1
	for i := range set {
		if !set[i].Valid {
			set[i] = denseLine{Valid: true, Tag: line, Meta: meta, LRU: d.clock}
			return 0, 0, false, true
		}
	}
	for i := range set {
		if veto != nil && veto(set[i].Tag) {
			continue
		}
		if victim < 0 || set[i].LRU < set[victim].LRU {
			victim = i
		}
	}
	if victim < 0 {
		return 0, 0, false, false
	}
	tag, m := set[victim].Tag, set[victim].Meta
	set[victim] = denseLine{Valid: true, Tag: line, Meta: meta, LRU: d.clock}
	return tag, m, true, true
}

func (d *dense) invalidate(line uint64) (uint8, bool) {
	l := d.peek(line)
	if l == nil {
		return 0, false
	}
	meta := l.Meta
	*l = denseLine{}
	return meta, true
}

// snap is what Array.Snapshot must return for the same history.
func (d *dense) snap() Snap {
	s := Snap{Clock: d.clock, Hits: d.hits, Misses: d.misses}
	for pos, l := range d.lines {
		if l.Valid {
			s.Pos = append(s.Pos, uint32(pos))
			s.Tag = append(s.Tag, l.Tag)
			s.LRU = append(s.LRU, l.LRU)
			s.Meta = append(s.Meta, l.Meta)
		}
	}
	return s
}

// geometries are the shapes the differential tests cover: one set,
// fewer sets than a chunk, exactly a chunk (the L1D), and an L3 bank.
var geometries = []struct {
	name        string
	size, ways  int
	setSpan     int // sets the random addresses fall in
	tagsPerSet  int // distinct lines per set, > ways so that sets overflow
	checkpoints int // ops between full-content comparisons
}{
	{"1x2", 128, 2, 1, 7, 50},
	{"8x4", 2048, 4, 8, 11, 200},
	{"L1D-64x12", 48 << 10, 12, 64, 29, 500},
	{"L3-4096x16", 4 << 20, 16, 300, 37, 2000},
}

// sameLine compares a returned line with the reference's; the stamps
// only until the reference's clock wraps.
func sameLine(a *Line, b *denseLine, d *dense) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Tag == b.Tag && a.Meta == b.Meta && a.Valid == b.Valid && (d.wrapped() || uint64(a.LRU) == b.LRU)
}

// ranked is s with each set's stamps replaced by their 1-based rank in
// it and the clock dropped: what a renumbering keeps.
func ranked(s Snap, ways int) Snap {
	out := s
	out.Clock = 0
	out.LRU = make([]uint64, len(s.LRU))
	for i, r := range setRanks(s, ways) {
		out.LRU[i] = uint64(r)
	}
	return out
}

// step applies one random operation to both implementations and
// reports the first difference in what they return.
func step(rng *xrand.RNG, a *Array, d *dense, setSpan, tagsPerSet int) error {
	line := uint64(rng.Intn(tagsPerSet)*a.Sets()+rng.Intn(setSpan)) * 64
	meta := uint8(rng.Intn(5))
	switch op := rng.Intn(100); {
	case op < 25:
		touch := rng.Bool(0.7)
		if g, w := a.Lookup(line, touch), d.lookup(line, touch); !sameLine(g, w, d) {
			return fmt.Errorf("Lookup(%#x,%v) = %+v, want %+v", line, touch, g, w)
		}
	case op < 32:
		if g, w := a.Peek(line), d.peek(line); !sameLine(g, w, d) {
			return fmt.Errorf("Peek(%#x) = %+v, want %+v", line, g, w)
		}
	case op < 38:
		if g, w := a.Contains(line), d.peek(line) != nil; g != w {
			return fmt.Errorf("Contains(%#x) = %v, want %v", line, g, w)
		}
	case op < 66:
		gt, gm, ge := a.Insert(line, meta)
		wt, wm, we, _ := d.insert(line, meta, nil)
		if gt != wt || gm != wm || ge != we {
			return fmt.Errorf("Insert(%#x,%d) = (%#x,%d,%v), want (%#x,%d,%v)", line, meta, gt, gm, ge, wt, wm, we)
		}
	case op < 82:
		// Veto none, one, a third, all but one or all of the set's ways,
		// counting how often the array asks about each.
		resident := d.set(line)
		spare := resident[rng.Intn(len(resident))].Tag
		mode := rng.Intn(5)
		veto := func(tag uint64) bool {
			switch mode {
			case 0:
				return false
			case 1:
				return tag == spare
			case 2:
				return tag/64%3 == 0
			case 3:
				return tag != spare
			default:
				return true
			}
		}
		asked := make(map[uint64]int)
		gt, gm, ge, gok := a.InsertVeto(line, meta, func(tag uint64) bool { asked[tag]++; return veto(tag) })
		wt, wm, we, wok := d.insert(line, meta, veto)
		if gt != wt || gm != wm || ge != we || gok != wok {
			return fmt.Errorf("InsertVeto(%#x,%d,mode=%d) = (%#x,%d,%v,%v), want (%#x,%d,%v,%v)", line, meta, mode, gt, gm, ge, gok, wt, wm, we, wok)
		}
		for tag, n := range asked {
			if n > 1 {
				return fmt.Errorf("InsertVeto(%#x,mode=%d) asked about way %#x %d times", line, mode, tag, n)
			}
		}
		// A refresh or a free way needs no verdict; an eviction nothing
		// objects to needs exactly one, about the victim.
		want := 0
		if ge {
			want = 1
		}
		if mode == 0 && len(asked) != want {
			return fmt.Errorf("InsertVeto(%#x) with nothing vetoed asked about %d ways, want %d", line, len(asked), want)
		}
	default:
		gm, gp := a.Invalidate(line)
		wm, wp := d.invalidate(line)
		if gm != wm || gp != wp {
			return fmt.Errorf("Invalidate(%#x) = (%d,%v), want (%d,%v)", line, gm, gp, wm, wp)
		}
	}
	return nil
}

// sameContents compares everything observable about the two arrays:
// counters, the valid lines and their positions, ForEach's sequence,
// and the stamps — their values until the reference's clock wraps,
// their order within each set after.
func sameContents(a *Array, d *dense) error {
	want := d.snap()
	if a.Hits() != want.Hits || a.Misses() != want.Misses {
		return fmt.Errorf("hits/misses = %d/%d, want %d/%d", a.Hits(), a.Misses(), want.Hits, want.Misses)
	}
	got := a.Snapshot()
	if d.wrapped() {
		got, want = ranked(got, d.ways), ranked(want, d.ways)
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("snapshot has %d lines at clock %d, want %d at %d (or they differ in content)", len(got.Pos), got.Clock, len(want.Pos), want.Clock)
	}
	i := 0
	var err error
	a.ForEach(func(tag uint64, meta uint8) {
		if err == nil && (i >= len(want.Tag) || want.Tag[i] != tag || want.Meta[i] != meta) {
			err = fmt.Errorf("ForEach item %d = (%#x,%d), not the valid line at that rank", i, tag, meta)
		}
		i++
	})
	if err == nil && i != len(want.Tag) {
		err = fmt.Errorf("ForEach visited %d lines, want %d", i, len(want.Tag))
	}
	return err
}

// TestDifferentialAgainstDense drives Array and the dense reference
// with the same seeded operation sequences and requires every return
// value, the counters and the valid-line set to agree throughout,
// across Snapshot→Restore into the same array and into a fresh one.
// Each sequence runs twice: from a new array, and from one restored
// with its clock 1,000 ticks below 2^32, driven across the wrap.
func TestDifferentialAgainstDense(t *testing.T) {
	for _, g := range geometries {
		for seed := uint64(1); seed <= 3; seed++ {
			for _, start := range []uint64{0, 1<<32 - 1000} {
				g, seed, start := g, seed, start
				name := fmt.Sprintf("%s/seed%d", g.name, seed)
				if start > 0 {
					name += "/wrap"
				}
				t.Run(name, func(t *testing.T) {
					a, d := New(g.size, g.ways, 64), newDense(g.size, g.ways, 64)
					a.Restore(Snap{Clock: start})
					d.clock = start
					if err := sameContents(a, d); err != nil {
						t.Fatalf("empty arrays: %v", err)
					}
					rng := xrand.New(seed)
					for i := 1; i <= 12*g.checkpoints || (start > 0 && !d.wrapped()); i++ {
						if err := step(rng, a, d, g.setSpan, g.tagsPerSet); err != nil {
							t.Fatalf("op %d: %v", i, err)
						}
						if i%g.checkpoints != 0 {
							continue
						}
						if err := sameContents(a, d); err != nil {
							t.Fatalf("after op %d: %v", i, err)
						}
						snap := a.Snapshot()
						if i/g.checkpoints%2 == 0 {
							a = New(g.size, g.ways, 64)
						}
						a.Restore(snap)
						if err := sameContents(a, d); err != nil {
							t.Fatalf("after restore at op %d: %v", i, err)
						}
					}
					if err := sameContents(a, d); err != nil {
						t.Fatalf("at the end: %v", err)
					}
				})
			}
		}
	}
}

// TestLineSize pins the entry at 16 bytes: a 32-bit stamp beside the
// tag, which keeps a chunk of 64 sets at 8, 12 or 16 KB for 8, 12 and
// 16 ways, all Go size classes.
func TestLineSize(t *testing.T) {
	if got := unsafe.Sizeof(Line{}); got != 16 {
		t.Fatalf("Line is %d bytes, want 16", got)
	}
}

// TestNeverInsertedSetsOwnNothing: reads of sets nothing was inserted
// into are misses that take no storage, and an array's storage follows
// the sets inserted into, not its capacity.
func TestNeverInsertedSetsOwnNothing(t *testing.T) {
	a := New(4<<20, 16, 64)
	for i := uint64(0); i < 4096; i++ {
		if a.Lookup(line(i), true) != nil || a.Peek(line(i)) != nil || a.Contains(line(i)) {
			t.Fatalf("line %d found in an empty array", i)
		}
		if _, present := a.Invalidate(line(i)); present {
			t.Fatalf("line %d invalidated in an empty array", i)
		}
	}
	if a.blocks != 0 || len(a.chunks) != 0 {
		t.Fatalf("reads allocated %d blocks in %d chunks", a.blocks, len(a.chunks))
	}
	if a.Misses() != 4096 {
		t.Fatalf("misses = %d, want 4096", a.Misses())
	}
	for i := uint64(0); i < 70; i++ {
		a.Insert(line(i), 0)
		a.Insert(line(i+4096), 0) // same set, second way
	}
	if a.blocks != 70 || len(a.chunks) != 2 {
		t.Fatalf("70 sets inserted into: %d blocks in %d chunks, want 70 in 2", a.blocks, len(a.chunks))
	}
}

// TestRestoreIntoUsedArray restores one Snap into a fresh array and
// into one that already holds lines in other sets — what the model
// checker does on every backtrack — and requires the two to be
// indistinguishable afterwards: nothing of the old contents survives.
// The second row's Snap has a clock and stamps past 32 bits, which
// Restore renumbers.
func TestRestoreIntoUsedArray(t *testing.T) {
	for _, g := range geometries {
		for _, shift := range []uint64{0, 1 << 33} {
			g, shift := g, shift
			name := g.name
			if shift > 0 {
				name += "/wide-stamps"
			}
			t.Run(name, func(t *testing.T) {
				src, ref := New(g.size, g.ways, 64), newDense(g.size, g.ways, 64)
				rng := xrand.New(11)
				for i := 0; i < 4*g.checkpoints; i++ {
					if err := step(rng, src, ref, g.setSpan, g.tagsPerSet); err != nil {
						t.Fatal(err)
					}
				}
				snap := src.Snapshot()
				if shift > 0 {
					ref.shift(shift)
					snap = ref.snap()
				}

				fresh, used := New(g.size, g.ways, 64), New(g.size, g.ways, 64)
				for i := 0; i < src.Sets()*g.ways*3; i++ {
					// Every set, more lines than ways, tags the snapshot lacks.
					used.Insert(uint64((g.tagsPerSet+i/src.Sets())*src.Sets()+i%src.Sets())*64, 3)
					used.Lookup(uint64(i)*64, true)
				}
				fresh.Restore(snap)
				used.Restore(snap)
				for _, a := range []*Array{fresh, used} {
					if err := sameContents(a, ref); err != nil {
						t.Fatalf("restored array: %v", err)
					}
				}
				// Three arrays, one history from here on.
				state := rng.State()
				for _, a := range []*Array{fresh, used} {
					rng.SetState(state)
					d := *ref
					d.lines = append([]denseLine(nil), ref.lines...)
					for i := 0; i < 4*g.checkpoints; i++ {
						if err := step(rng, a, &d, g.setSpan, g.tagsPerSet); err != nil {
							t.Fatalf("op %d after restore: %v", i, err)
						}
					}
					if err := sameContents(a, &d); err != nil {
						t.Fatalf("after driving the restored array: %v", err)
					}
				}
				if !reflect.DeepEqual(fresh.Snapshot(), used.Snapshot()) {
					t.Fatal("fresh and used arrays diverged after the same restore and operations")
				}
			})
		}
	}
}

// TestRestoreRejectsForeignSnap: a Snap that cannot have come from an
// array of this geometry fails loudly instead of planting lines no
// lookup can reach.
func TestRestoreRejectsForeignSnap(t *testing.T) {
	// snap holds LRU-1, meta-0 lines at (position, tag) pairs.
	snap := func(lines ...uint64) Snap {
		var s Snap
		for i := 0; i < len(lines); i += 2 {
			s.Pos = append(s.Pos, uint32(lines[i]))
			s.Tag = append(s.Tag, lines[i+1])
			s.LRU = append(s.LRU, 1)
			s.Meta = append(s.Meta, 0)
		}
		return s
	}
	short := snap(4, line(1), 5, line(9))
	short.LRU = short.LRU[:1]
	// 8 sets x 4 ways: position p is way p%4 of set p/4; line(i) indexes set i%8.
	for name, s := range map[string]Snap{
		"position past end":         snap(32, line(0)),
		"out of order":              snap(5, line(1), 4, line(9)),
		"duplicate position":        snap(4, line(1), 4, line(9)),
		"tag of another set":        snap(4, line(2)),
		"columns of unequal length": short,
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Restore did not panic", name)
				}
			}()
			New(2048, 4, 64).Restore(s)
		}()
	}
	a := New(2048, 4, 64)
	s := snap(4, line(1), 5, line(9), 31, line(7))
	s.Clock = 9
	a.Restore(s)
	if !a.Contains(line(1)) || !a.Contains(line(9)) || !a.Contains(line(7)) {
		t.Fatal("well-formed snapshot was not restored")
	}
}
