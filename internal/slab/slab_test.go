package slab

import (
	"reflect"
	"testing"
)

// TestListsAreFIFOs: lists that share a slab each keep their own
// records, in push order, through interleaved pushes, pops and frees,
// and the slab never holds more records than were queued at once.
func TestListsAreFIFOs(t *testing.T) {
	var s Slab[int]
	var a, b List
	var wantA, wantB []int
	most := 0
	for i := 0; i < 1000; i++ {
		switch i % 7 {
		case 0, 2, 5:
			s.Push(&a, i)
			wantA = append(wantA, i)
		case 1, 4:
			s.Push(&b, i)
			wantB = append(wantB, i)
		case 3:
			if got := s.Pop(&a); got != wantA[0] {
				t.Fatalf("step %d: popped %d from a, want %d", i, got, wantA[0])
			}
			wantA = wantA[1:]
		case 6:
			if i%3 == 0 {
				s.Free(b)
				b, wantB = List{}, nil
			} else {
				s.Pop(&b)
				wantB = wantB[1:]
			}
		}
		most = max(most, len(wantA)+len(wantB))
		if got := s.Values(a); !reflect.DeepEqual(got, wantA) {
			t.Fatalf("step %d: a holds %v, want %v", i, got, wantA)
		}
		if got := s.Values(b); !reflect.DeepEqual(got, wantB) || s.Len(b) != len(wantB) || b.Empty() != (len(wantB) == 0) {
			t.Fatalf("step %d: b holds %v (len %d), want %v", i, got, s.Len(b), wantB)
		}
	}
	if len(s.nodes) != most {
		t.Fatalf("slab holds %d records; at most %d were queued at once", len(s.nodes), most)
	}
	s.Reset()
	a = List{}
	s.Push(&a, 7)
	if got := s.Values(a); !reflect.DeepEqual(got, []int{7}) || len(s.nodes) != 1 {
		t.Fatalf("after Reset the slab holds %v in %d records", got, len(s.nodes))
	}
}

// TestSlabSteadyStateAllocs: a reserved slab allocates nothing while
// what it holds stays within the reserve, and a slab that reached a
// high-water mark allocates nothing below it.
func TestSlabSteadyStateAllocs(t *testing.T) {
	var s Slab[[3]uint64]
	s.Reserve(64)
	lists := make([]List, 8)
	if n := testing.AllocsPerRun(1, func() {
		for i := range 10000 {
			l := &lists[i%len(lists)]
			s.Push(l, [3]uint64{uint64(i)})
			if i%3 == 2 {
				s.Pop(l)
			}
			if i%64 == 63 {
				for j := range lists {
					s.Free(lists[j])
					lists[j] = List{}
				}
			}
		}
	}); n != 0 {
		t.Fatalf("a reserved slab allocates %v times; want 0", n)
	}
	if len(s.nodes) > 64 {
		t.Fatalf("the slab grew to %d records; the lists never held more than 64", len(s.nodes))
	}
}
