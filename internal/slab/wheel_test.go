package slab

import (
	"reflect"
	"testing"
)

// TestWheelKeepsOneCycleABucket: values pushed for a cycle come back in
// push order when it is due, not before; the buckets read from now's
// are in time order; and a push into a bucket holding another cycle is
// refused.
func TestWheelKeepsOneCycleABucket(t *testing.T) {
	var w Wheel[int]
	if _, ok := w.Ahead(0); ok || !w.Empty() {
		t.Fatal("a zero Wheel is not empty")
	}
	const now = 100
	for _, p := range []struct {
		at uint64
		v  int
	}{{103, 1}, {115, 2}, {103, 3}, {100, 4}} {
		if !w.Push(p.at, p.v) {
			t.Fatalf("Push(%d) refused", p.at)
		}
	}
	if w.Push(119, 5) || w.Push(99, 6) {
		t.Fatal("a push into 103's or 115's bucket for another cycle was accepted")
	}
	if d, ok := w.Ahead(now + 1); !ok || d != 2 {
		t.Fatalf("Ahead(%d) = %d, %v; want 103's bucket, 2 on", now+1, d, ok)
	}
	if got := w.Bucket(103 + WheelSize); !reflect.DeepEqual(got, []int{1, 3}) {
		t.Fatalf("103's bucket holds %v, want [1 3]", got)
	}
	if l := w.Take(115 - WheelSize); !l.Empty() {
		t.Fatal("Take took 115's values at cycle 99")
	}
	var got []int
	for at := uint64(now); at < now+WheelSize; at++ {
		for l := w.Take(at); !l.Empty(); {
			got = append(got, w.Pop(&l))
		}
	}
	if want := []int{4, 1, 3, 2}; !reflect.DeepEqual(got, want) || !w.Empty() {
		t.Fatalf("took %v, want %v and an empty wheel", got, want)
	}
	if !w.Push(119, 5) {
		t.Fatal("an emptied bucket refused a new cycle")
	}
	w.Reset()
	if !w.Empty() || !w.Push(99, 6) {
		t.Fatal("Reset left values behind")
	}
}
