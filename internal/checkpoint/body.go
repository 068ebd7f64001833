package checkpoint

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"unsafe"

	"rowsim/internal/cache"
	"rowsim/internal/coherence"
	"rowsim/internal/core"
	"rowsim/internal/faults"
	"rowsim/internal/interconnect"
	"rowsim/internal/predictor"
	"rowsim/internal/sim"
	"rowsim/internal/sram"
	"rowsim/internal/stats"
)

// The body codec. Every snapshot type reachable from sim.SysSnap has
// one function below that names each of its exported fields once, in
// order; the same function encodes (sizing what does not fit) and
// decodes, so the directions cannot drift apart. The encoding rules:
//
//   - an unsigned number is a uvarint, a signed one a zigzag varint, a
//     bool one byte, 0 or 1;
//   - a slice is its length, then its elements; a []uint8 is written
//     raw, and a zero length decodes to nil;
//   - a pointer is a presence byte, 0 or 1, then what it points to;
//   - a stats accumulator is its AppendBinary bytes, length first.
//
// Decoding believes no length: it checks each against the bytes left
// before it allocates, and charges each allocation against a budget of
// allocPerByte bytes per body byte. On the first defect it records the
// error and stops reading; every later field decodes as zero, so a
// corrupt body is one error and never a panic.

// allocPerByte bounds what a body may make Decode allocate, per body
// byte. A valid body never comes near it: every element of a slice,
// and every pointee, encodes to at least one byte per field, and the
// largest ratio of a type's size in memory to its shortest encoding is
// 24, an empty inner slice of [][]T (a 24-byte header, one length
// byte); TestBudgetFitsEveryType checks every type against it.
const allocPerByte = 32

// pass is what a codec does with the fields it is shown.
type pass uint8

const (
	encoding pass = iota // write the fields to buf, or count them past end
	decoding             // fill the fields from buf
)

// A codec is one pass over a body. buf is the room the body is encoded
// into, or the body decoded, and off the bytes sized, written or read
// so far. Encoding writes in place and never appends. It writes what
// starts at or before end, a longest number short of buf's end, and
// only counts what starts after it: a pass that ends past end has
// sized the body without writing all of it.
type codec struct {
	pass pass
	buf  []byte
	off  int
	end  int
	// decoding: the bytes the snapshot may still allocate, and the
	// first defect.
	budget int
	err    error
	// scratch holds one accumulator's AppendBinary bytes.
	scratch []byte
}

// appendBody appends snap's body to buf with reserve bytes of capacity
// left after it. It encodes straight into buf's spare capacity; only a
// body that overflows it, such as a lineage's first, is encoded twice:
// the overflowing pass ends up having sized the body, and buf grows
// once to hold it. It grows with a sixteenth to spare, because a run's
// later checkpoints tend to be a little larger than its earlier ones
// (an 8-core sps run's grow about 1% a checkpoint), and a Saver's next
// body should fit.
func appendBody(buf []byte, snap *sim.SysSnap, reserve int) []byte {
	at := len(buf)
	c := &codec{pass: encoding, buf: buf[at:max(at, cap(buf)-reserve)]}
	c.end = len(c.buf) - binary.MaxVarintLen64
	sysSnap(c, snap)
	n := c.off
	if n <= c.end {
		return buf[:at+n]
	}
	spare := max(n/16, binary.MaxVarintLen64)
	grown := make([]byte, at+n, at+n+spare+reserve)
	copy(grown, buf)
	*c = codec{pass: encoding, buf: grown[at : at+n+spare], end: n + spare - binary.MaxVarintLen64, scratch: c.scratch}
	sysSnap(c, snap)
	return grown
}

// decodeBody decodes a whole body, which must hold one snapshot and
// nothing after it.
func decodeBody(body []byte) (*sim.SysSnap, error) {
	c := &codec{pass: decoding, buf: body, budget: allocPerByte * len(body)}
	snap := new(sim.SysSnap)
	sysSnap(c, snap)
	if c.err == nil && c.left() != 0 {
		c.fail(fmt.Sprintf("%d bytes after the snapshot", c.left()))
	}
	if c.err != nil {
		return nil, c.err
	}
	return snap, nil
}

func (c *codec) left() int { return len(c.buf) - c.off }

// fail records the first defect, with the offset it was found at, and
// stops the reading: with no bytes left every later field is zero.
func (c *codec) fail(msg string) {
	if c.err == nil {
		c.err = fmt.Errorf("byte %d: %s", c.off, msg)
	}
	c.off = len(c.buf)
}

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// uint writes v, or counts it past end; decoding reads with uvarint
// instead.
func (c *codec) uint(v uint64) {
	if c.off <= c.end {
		c.off += binary.PutUvarint(c.buf[c.off:], v)
	} else {
		c.off += uvarintLen(v)
	}
}

// uvarint reads a number; most are one byte.
func (c *codec) uvarint() uint64 {
	if c.off < len(c.buf) {
		if b := c.buf[c.off]; b < 0x80 {
			c.off++
			return uint64(b)
		}
	}
	return c.longUvarint()
}

func (c *codec) longUvarint() uint64 {
	v, n := binary.Uvarint(c.buf[c.off:])
	if n <= 0 {
		if n == 0 {
			c.fail("body ends inside a number")
		} else {
			c.fail("number overflows 64 bits")
		}
		return 0
	}
	c.off += n
	return v
}

// length reads a slice length and charges n elements of elem bytes to
// the budget. It returns 0 on a defect, so nothing is allocated.
func (c *codec) length(elem uintptr) int {
	n := c.uvarint()
	switch {
	case n > uint64(c.left()): // every element takes a byte at least
		c.fail(fmt.Sprintf("length %d with %d bytes left", n, c.left()))
		return 0
	case !c.charge(int(n) * int(elem)):
		return 0
	}
	return int(n)
}

// charge takes size bytes from the allocation budget, or fails.
func (c *codec) charge(size int) bool {
	if size > c.budget {
		c.fail(fmt.Sprintf("body asks for %d more bytes of state than %d per byte allows", size-c.budget, allocPerByte))
		return false
	}
	c.budget -= size
	return true
}

type unsignedNum interface {
	~uint8 | ~uint16 | ~uint32 | ~uint64
}

type signedNum interface {
	~int8 | ~int32 | ~int64 | ~int
}

func unsigned[T unsignedNum](c *codec, p *T) {
	if c.pass != decoding {
		c.uint(uint64(*p))
		return
	}
	v := c.uvarint()
	if uint64(T(v)) != v {
		c.overflow(v, *p)
	}
	*p = T(v)
}

func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func signed[T signedNum](c *codec, p *T) {
	if c.pass != decoding {
		c.uint(zigzag(int64(*p)))
		return
	}
	v := unzigzag(c.uvarint())
	if int64(T(v)) != v {
		c.overflow(v, *p)
	}
	*p = T(v)
}

// overflow reports a number too wide for the field it is read into,
// which has the type of field.
func (c *codec) overflow(v, field any) {
	c.fail(fmt.Sprintf("%d overflows %T", v, field))
}

func flag(c *codec, p *bool) {
	if c.pass != decoding {
		b := uint64(0)
		if *p {
			b = 1
		}
		c.uint(b)
		return
	}
	switch c.uvarint() {
	case 0:
		*p = false
	case 1:
		*p = true
	default:
		c.fail("bool is neither 0 nor 1")
	}
}

// unsigneds and signeds are slices of numbers, each coded in one loop
// over local copies of the buffer and offset: they are most of a body.
func unsigneds[T unsignedNum](c *codec, p *[]T) {
	if c.pass != decoding {
		c.uint(uint64(len(*p)))
		s, buf, off, end := *p, c.buf, c.off, c.end
		for ; len(s) > 0 && off <= end; s = s[1:] {
			off += binary.PutUvarint(buf[off:], uint64(s[0]))
		}
		for _, v := range s { // past end
			off += uvarintLen(uint64(v))
		}
		c.off = off
		return
	}
	*p = nil
	if n := c.length(unsafe.Sizeof(T(0))); n > 0 {
		s := make([]T, n)
		buf, off := c.buf, c.off
		for i := range s {
			v, w := binary.Uvarint(buf[off:])
			if w <= 0 || uint64(T(v)) != v {
				c.off = off
				unsigned(c, &s[i]) // fails, saying why
				return
			}
			s[i], off = T(v), off+w
		}
		*p, c.off = s, off
	}
}

func signeds[T signedNum](c *codec, p *[]T) {
	if c.pass != decoding {
		c.uint(uint64(len(*p)))
		s, buf, off, end := *p, c.buf, c.off, c.end
		for ; len(s) > 0 && off <= end; s = s[1:] {
			off += binary.PutUvarint(buf[off:], zigzag(int64(s[0])))
		}
		for _, v := range s {
			off += uvarintLen(zigzag(int64(v)))
		}
		c.off = off
		return
	}
	*p = nil
	if n := c.length(unsafe.Sizeof(T(0))); n > 0 {
		s := make([]T, n)
		buf, off := c.buf, c.off
		for i := range s {
			u, w := binary.Uvarint(buf[off:])
			v := unzigzag(u)
			if w <= 0 || int64(T(v)) != v {
				c.off = off
				signed(c, &s[i]) // fails, saying why
				return
			}
			s[i], off = T(v), off+w
		}
		*p, c.off = s, off
	}
}

// raw is a []uint8 written as it is.
func raw(c *codec, p *[]uint8) {
	if c.pass != decoding {
		c.uint(uint64(len(*p)))
		if c.off <= c.end {
			copy(c.buf[c.off:], *p) // a short copy ends the pass past end
		}
		c.off += len(*p)
		return
	}
	*p = nil
	if n := c.length(1); n > 0 {
		*p = append([]uint8(nil), c.buf[c.off:c.off+n]...)
		c.off += n
	}
}

// list is a slice of records, each coded by f.
func list[T any](c *codec, p *[]T, f func(*codec, *T)) {
	if c.pass != decoding {
		c.uint(uint64(len(*p)))
	} else {
		var zero T
		*p = nil
		if n := c.length(unsafe.Sizeof(zero)); n > 0 {
			*p = make([]T, n)
		}
	}
	for i := range *p {
		f(c, &(*p)[i])
	}
}

// ptr is a pointer, nil or to a record coded by f.
func ptr[T any](c *codec, p **T, f func(*codec, *T)) {
	present := *p != nil
	flag(c, &present)
	if c.pass == decoding {
		var zero T
		if *p = nil; !present || !c.charge(int(unsafe.Sizeof(zero))) {
			return
		}
		*p = new(T)
	}
	if present {
		f(c, *p)
	}
}

// accumulator is a stats.Counter, Mean or Histogram.
type accumulator interface {
	AppendBinary([]byte) ([]byte, error)
	UnmarshalBinary([]byte) error
}

func acc(c *codec, a accumulator) {
	if c.pass != decoding {
		c.scratch, _ = a.AppendBinary(c.scratch[:0])
		c.uint(uint64(len(c.scratch)))
		if c.off <= c.end {
			copy(c.buf[c.off:], c.scratch)
		}
		c.off += len(c.scratch)
		return
	}
	n := c.length(1)
	if err := a.UnmarshalBinary(c.buf[c.off : c.off+n]); err != nil {
		c.fail(err.Error())
		return
	}
	c.off += n
}

func sysSnap(c *codec, s *sim.SysSnap) {
	unsigned(c, &s.Cycle)
	unsigned(c, &s.Visited)
	meshSnap(c, &s.Mesh)
	list(c, &s.Cores, func(c *codec, p **core.CoreSnap) { ptr(c, p, coreSnap) })
	list(c, &s.Caches, func(c *codec, p **cache.CacheSnap) { ptr(c, p, cacheSnap) })
	list(c, &s.Dirs, func(c *codec, p **coherence.DirSnap) { ptr(c, p, dirSnap) })
	injectorSnap(c, &s.Faults)
}

func meshSnap(c *codec, m *interconnect.MeshSnap) {
	unsigned(c, &m.Now)
	unsigned(c, &m.Seq)
	list(c, &m.Events, meshEvent)
	list(c, &m.Inboxes, func(c *codec, p *[]coherence.Msg) { list(c, p, msg) })
	unsigneds(c, &m.LastAt)
	unsigned(c, &m.Messages)
	unsigned(c, &m.HopsSum)
}

func meshEvent(c *codec, e *interconnect.MeshEventSnap) {
	unsigned(c, &e.At)
	unsigned(c, &e.Seq)
	msg(c, &e.Msg)
}

func msg(c *codec, m *coherence.Msg) {
	unsigned(c, &m.Line)
	signed(c, &m.Src)
	signed(c, &m.Dst)
	signed(c, &m.Requestor)
	signed(c, &m.AckCount)
	unsigned(c, &m.Type)
	unsigned(c, &m.Grant)
	flag(c, &m.FromPrivate)
}

func injectorSnap(c *codec, s *faults.InjectorSnap) {
	unsigned(c, &s.RNGState)
	faultStats(c, &s.Stats)
}

func faultStats(c *codec, s *faults.Stats) {
	unsigned(c, &s.Messages)
	unsigned(c, &s.Jittered)
	unsigned(c, &s.Reordered)
	unsigned(c, &s.Duplicated)
	unsigned(c, &s.Dropped)
}

func sramSnap(c *codec, s *sram.Snap) {
	unsigneds(c, &s.Pos)
	unsigneds(c, &s.Tag)
	unsigneds(c, &s.LRU)
	raw(c, &s.Meta)
	unsigned(c, &s.Clock)
	unsigned(c, &s.Hits)
	unsigned(c, &s.Misses)
}

func coreSnap(c *codec, s *core.CoreSnap) {
	signed(c, &s.FetchIdx)
	unsigned(c, &s.FetchHoldBy)
	unsigned(c, &s.FetchFreeAt)
	unsigned(c, &s.Now)
	unsigned(c, &s.NextID)
	list(c, &s.ROB, robEntry)
	signed(c, &s.ROBHead)
	signed(c, &s.ROBTail)
	list(c, &s.LQ, lqEntry)
	signed(c, &s.LQHead)
	signed(c, &s.LQTail)
	list(c, &s.SB, sbEntry)
	signed(c, &s.SBHead)
	signed(c, &s.SBTail)
	list(c, &s.AQ, aqEntry)
	signed(c, &s.AQHead)
	signed(c, &s.AQTail)
	list(c, &s.Rename, depRef)
	list(c, &s.ReadyQ, depRef)
	list(c, &s.StoreBlocked, depRef)
	list(c, &s.FenceBlocked, depRef)
	list(c, &s.LockWait, depRef)
	unsigneds(c, &s.FenceIDs)
	list(c, &s.Wheel, func(c *codec, p *[]core.WheelEventSnap) { list(c, p, wheelEvent) })
	branchSnap(c, &s.BP)
	storeSetSnap(c, &s.SS)
	ptr(c, &s.CP, contentionSnap)
	sramSnap(c, &s.L1I)
	unsigned(c, &s.L1ILastLine)
	unsigned(c, &s.L1IMisses)
	signed(c, &s.MemPortsUsed)
	flag(c, &s.DrainBusy)
	unsigned(c, &s.Work)
	flag(c, &s.Done)
	unsigned(c, &s.FinishedAt)
	coreStats(c, &s.Stats)
}

func depRef(c *codec, d *core.DepRef) {
	unsigned(c, &d.Slot)
	unsigned(c, &d.ID)
}

func robEntry(c *codec, e *core.ROBEntrySnap) {
	flag(c, &e.Valid)
	unsigned(c, &e.ID)
	signed(c, &e.Pi)
	unsigned(c, &e.St)
	signed(c, &e.SrcPending)
	unsigned(c, &e.Token)
	list(c, &e.Deps, depRef)
	unsigned(c, &e.DispatchAt)
	unsigned(c, &e.CompleteAt)
	unsigned(c, &e.Line)
	flag(c, &e.AddrReady)
	signed(c, &e.LQ)
	signed(c, &e.SB)
	signed(c, &e.AQ)
	unsigned(c, &e.WaitStoreID)
	flag(c, &e.Mispred)
	flag(c, &e.ValueReady)
	flag(c, &e.Lazy)
	flag(c, &e.PredContended)
	flag(c, &e.AddrCalcDone)
	unsigned(c, &e.LockIssueAt)
}

func lqEntry(c *codec, e *core.LQEntrySnap) {
	unsigned(c, &e.ID)
	unsigned(c, &e.Slot)
	unsigned(c, &e.Line)
	flag(c, &e.HasLine)
	flag(c, &e.IsAtomic)
	flag(c, &e.Done)
}

func sbEntry(c *codec, e *core.SBEntrySnap) {
	unsigned(c, &e.ID)
	unsigned(c, &e.Slot)
	unsigned(c, &e.Line)
	flag(c, &e.AddrReady)
	flag(c, &e.Committed)
	flag(c, &e.IsAtomic)
}

func aqEntry(c *codec, e *core.AQEntrySnap) {
	unsigned(c, &e.ID)
	unsigned(c, &e.Slot)
	unsigned(c, &e.PC)
	unsigned(c, &e.Line)
	flag(c, &e.HasAddr)
	flag(c, &e.Locked)
	flag(c, &e.Contended)
	unsigned(c, &e.LockAt)
	flag(c, &e.PredContended)
	flag(c, &e.Trainable)
}

func wheelEvent(c *codec, e *core.WheelEventSnap) {
	unsigned(c, &e.Slot)
	unsigned(c, &e.ID)
	unsigned(c, &e.Token)
	unsigned(c, &e.Kind)
}

func branchSnap(c *codec, s *predictor.BranchSnap) {
	raw(c, &s.GShare)
	raw(c, &s.Bimodal)
	raw(c, &s.Chooser)
	unsigned(c, &s.History)
	unsigned(c, &s.Lookups)
	unsigned(c, &s.Mispredict)
}

func storeSetSnap(c *codec, s *predictor.StoreSetSnap) {
	signeds(c, &s.SSIT)
	unsigneds(c, &s.LFST)
	signed(c, &s.NextID)
	unsigned(c, &s.Violations)
}

func contentionSnap(c *codec, s *predictor.ContentionSnap) {
	unsigneds(c, &s.Counters)
	unsigned(c, &s.Predictions)
	unsigned(c, &s.Correct)
	unsigned(c, &s.PredContended)
}

func coreStats(c *codec, s *core.Stats) {
	unsigned(c, &s.Committed)
	unsigned(c, &s.Atomics)
	for i := range s.Transitions {
		unsigned(c, &s.Transitions[i])
	}
	unsigned(c, &s.ContendedAtomics)
	unsigned(c, &s.PredictedLazy)
	unsigned(c, &s.Mispredicts)
	unsigned(c, &s.Branches)
	unsigned(c, &s.LQSquashes)
	unsigned(c, &s.SSViolations)
	unsigned(c, &s.LoadForwards)
	acc(c, &s.DispatchToIssue)
	acc(c, &s.IssueToLock)
	acc(c, &s.LockToUnlock)
	ptr(c, &s.LockHold, histogram)
	acc(c, &s.OlderUnexecAtEager)
	acc(c, &s.YoungerStartedAtLazy)
}

func histogram(c *codec, h *stats.Histogram) { acc(c, h) }

func cacheSnap(c *codec, s *cache.CacheSnap) {
	unsigned(c, &s.Now)
	unsigned(c, &s.Work)
	list(c, &s.MSHRs, mshr)
	list(c, &s.Stalled, stalled)
	list(c, &s.Parked, parked)
	sramSnap(c, &s.L1)
	sramSnap(c, &s.L2)
	list(c, &s.Events, cacheEvent)
	list(c, &s.Strides, stride)
	cacheStats(c, &s.Stats)
}

func waiter(c *codec, w *cache.WaiterSnap) {
	unsigned(c, &w.Tag)
	unsigned(c, &w.At)
	flag(c, &w.Write)
}

func mshr(c *codec, m *cache.MSHRSnap) {
	unsigned(c, &m.Line)
	flag(c, &m.Write)
	flag(c, &m.DataArrived)
	unsigned(c, &m.Grant)
	flag(c, &m.FromPrivate)
	signed(c, &m.PendingAcks)
	unsigned(c, &m.SentAt)
	list(c, &m.Waiters, waiter)
}

func stalled(c *codec, s *cache.StalledSnap) {
	unsigned(c, &s.Line)
	unsigned(c, &s.StallAt)
	msg(c, &s.Msg)
}

func parked(c *codec, p *cache.ParkedSnap) {
	unsigned(c, &p.Line)
	unsigned(c, &p.Tag)
	unsigned(c, &p.At)
	flag(c, &p.Write)
}

func cacheEvent(c *codec, e *cache.EventSnap) {
	unsigned(c, &e.At)
	unsigned(c, &e.Kind)
	unsigned(c, &e.Tag)
	unsigned(c, &e.Line)
	flag(c, &e.Wr)
	unsigned(c, &e.Lat)
}

func stride(c *codec, s *cache.StrideSnap) {
	unsigned(c, &s.PC)
	unsigned(c, &s.LastAddr)
	signed(c, &s.Stride)
	signed(c, &s.Conf)
}

func cacheStats(c *codec, s *cache.Stats) {
	acc(c, &s.Accesses)
	acc(c, &s.L1Hits)
	acc(c, &s.L2Hits)
	acc(c, &s.Misses)
	acc(c, &s.MissLatency)
	ptr(c, &s.MissHist, histogram)
	acc(c, &s.Prefetches)
	acc(c, &s.Writebacks)
	acc(c, &s.MSHRFull)
	acc(c, &s.ExtStalls)
	acc(c, &s.ForcedRel)
	acc(c, &s.Invalidations)
	acc(c, &s.Forwarded)
}

func dirSnap(c *codec, s *coherence.DirSnap) {
	unsigned(c, &s.Now)
	unsigneds(c, &s.Line)
	raw(c, &s.State)
	signeds(c, &s.Owner)
	unsigneds(c, &s.Sharers)
	list(c, &s.Busy, dirBusy)
	sramSnap(c, &s.L3)
	dirStats(c, &s.Stats)
}

func dirBusy(c *codec, b *coherence.DirBusySnap) {
	signed(c, &b.Index)
	dirTxn(c, &b.DirTxnSnap)
}

func dirTxn(c *codec, t *coherence.DirTxnSnap) {
	flag(c, &t.Blocked)
	dirPending(c, &t.Pend)
	list(c, &t.Waiting, msg)
}

func dirPending(c *codec, p *coherence.DirPending) {
	signed(c, &p.Requestor)
	flag(c, &p.IsWrite)
}

func dirStats(c *codec, s *coherence.DirStats) {
	acc(c, &s.GetS)
	acc(c, &s.GetX)
	acc(c, &s.PutX)
	acc(c, &s.Forwards)
	acc(c, &s.Stalled)
	acc(c, &s.L3Hits)
	acc(c, &s.L3Misses)
	acc(c, &s.Invalidates)
	acc(c, &s.StallDepth)
}
