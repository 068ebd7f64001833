// Package slab stores FIFO lists of records in one growable array per
// owner, with a free list. A popped record goes on the free list and
// the next push takes it from there, so the array grows only when the
// records queued at once, over all of the owner's lists, pass every
// earlier total: a run that reaches its high-water mark early
// allocates nothing afterwards, however its queues come and go. It is
// the storage of the run loop's queues that no configuration bound
// sizes tightly: the timing Wheel of the core and of each private
// cache, a private cache's MSHR waiters and parked misses, and a
// directory bank's stalled requests.
package slab

import "slices"

// Ref names a record of a Slab: 1 + its index, so that 0 is no record.
type Ref int32

// List is one FIFO of a Slab's records. The zero List is empty. A List
// is a value that only its Slab can read: copying one hands the list
// on, and the copy left behind must not be used again.
type List struct{ head, tail Ref }

// Empty reports whether the list holds no record.
func (l List) Empty() bool { return l.head == 0 }

// Front is the list's first record, 0 when it is empty.
func (l List) Front() Ref { return l.head }

type node[T any] struct {
	v    T
	next Ref // the next record of the node's list or of the free list
}

// Slab holds the records of any number of Lists of T.
type Slab[T any] struct {
	nodes []node[T]
	free  Ref // the first free record
}

// Reserve makes room for n records in all, so that the slab does not
// grow before it holds more.
func (s *Slab[T]) Reserve(n int) {
	if n > len(s.nodes) {
		s.nodes = slices.Grow(s.nodes, n-len(s.nodes))
	}
}

// Push appends v to l.
func (s *Slab[T]) Push(l *List, v T) {
	r := s.free
	if r != 0 {
		s.free = s.nodes[r-1].next
		s.nodes[r-1] = node[T]{v: v}
	} else {
		s.nodes = append(s.nodes, node[T]{v: v})
		r = Ref(len(s.nodes))
	}
	if l.head == 0 {
		l.head = r
	} else {
		s.nodes[l.tail-1].next = r
	}
	l.tail = r
}

// Pop removes l's first record, which must exist, and returns its
// value. The record is free again, so the value is a copy.
func (s *Slab[T]) Pop(l *List) T {
	r := l.head
	n := &s.nodes[r-1]
	v := n.v
	if l.head = n.next; l.head == 0 {
		l.tail = 0
	}
	n.next, s.free = s.free, r
	return v
}

// Free returns every record of l to the free list at once; l must not
// be used again.
func (s *Slab[T]) Free(l List) {
	if l.head != 0 {
		s.nodes[l.tail-1].next = s.free
		s.free = l.head
	}
}

// At returns record r's value, valid until the next Push.
func (s *Slab[T]) At(r Ref) *T { return &s.nodes[r-1].v }

// Next returns the record behind r in its list, 0 after the last.
func (s *Slab[T]) Next(r Ref) Ref { return s.nodes[r-1].next }

// Len counts l's records.
func (s *Slab[T]) Len(l List) int {
	n := 0
	for r := l.head; r != 0; r = s.nodes[r-1].next {
		n++
	}
	return n
}

// Values returns a copy of l's records in order, nil when it is empty.
func (s *Slab[T]) Values(l List) []T {
	var out []T
	for r := l.head; r != 0; r = s.nodes[r-1].next {
		out = append(out, s.nodes[r-1].v)
	}
	return out
}

// Reset frees every record, keeping the storage; every List of the
// slab must be dropped.
func (s *Slab[T]) Reset() {
	s.nodes = s.nodes[:0]
	s.free = 0
}
