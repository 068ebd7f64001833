package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestFlightBuildsOnce: however many callers want a key at once, one
// builds it and the rest are served its value.
func TestFlightBuildsOnce(t *testing.T) {
	const n = 16
	var f Flight[int]
	var builds atomic.Int32
	release := make(chan struct{})
	var started, done sync.WaitGroup
	started.Add(n)
	done.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer done.Done()
			started.Done()
			v, _, err := f.Get(context.Background(), "k", func() (int, error) {
				builds.Add(1)
				<-release
				return 42, nil
			})
			if v != 42 || err != nil {
				t.Errorf("Get = %d, %v; want 42", v, err)
			}
		}()
	}
	started.Wait()
	close(release)
	done.Wait()
	if builds.Load() != 1 {
		t.Errorf("%d builds, want 1", builds.Load())
	}
	if got, want := f.Stats(), (FlightStats{Leads: 1, Builds: 1, Hits: n - 1, Entries: 1}); got != want {
		t.Errorf("%+v, want %+v", got, want)
	}
}

// TestFlightFailedLeaderCachesNothing: a build that fails, by error or
// by panic, leaves nothing behind; one of the callers that waited for
// it builds next, and the others are served that.
func TestFlightFailedLeaderCachesNothing(t *testing.T) {
	const waiters = 8
	errBoom := errors.New("boom")
	for _, fail := range []func() (int, error){
		func() (int, error) { return 0, errBoom },
		func() (int, error) { panic(errBoom) },
	} {
		var f Flight[int]
		building, failNow := make(chan struct{}), make(chan struct{})
		leader := make(chan error)
		go func() {
			var err error
			defer func() {
				if p := recover(); p != nil {
					err = p.(error)
				}
				leader <- err
			}()
			_, _, err = f.Get(context.Background(), "k", func() (int, error) {
				close(building)
				<-failNow
				return fail()
			})
		}()
		<-building
		var wg sync.WaitGroup
		wg.Add(waiters)
		for i := 0; i < waiters; i++ {
			go func() {
				defer wg.Done()
				if v, _, err := f.Get(context.Background(), "k", func() (int, error) { return 7, nil }); v != 7 || err != nil {
					t.Errorf("waiter: Get = %d, %v; want 7", v, err)
				}
			}()
		}
		close(failNow)
		if err := <-leader; !errors.Is(err, errBoom) {
			t.Errorf("leader: %v, want %v", err, errBoom)
		}
		wg.Wait()
		if got, want := f.Stats(), (FlightStats{Leads: 2, Builds: 1, Hits: waiters - 1, Entries: 1}); got != want {
			t.Errorf("%+v, want %+v", got, want)
		}
	}
}

// TestFlightWaiterCancel: a waiter whose context ends gives up with the
// context's error and leaves the build to its leader; a value that is
// there is served whatever the context says.
func TestFlightWaiterCancel(t *testing.T) {
	var f Flight[int]
	building, release := make(chan struct{}), make(chan struct{})
	leader := make(chan int)
	go func() {
		v, _, _ := f.Get(context.Background(), "k", func() (int, error) {
			close(building)
			<-release
			return 1, nil
		})
		leader <- v
	}()
	<-building
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, led, err := f.Get(canceled, "k", func() (int, error) { return 2, nil }); led || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter: led=%v err=%v, want context.Canceled", led, err)
	}
	close(release)
	if v := <-leader; v != 1 {
		t.Fatalf("leader got %d after a waiter left, want 1", v)
	}
	if v, led, err := f.Get(canceled, "k", func() (int, error) { return 2, nil }); v != 1 || led || err != nil {
		t.Fatalf("canceled caller of a built key: %d, led=%v, %v; want 1", v, led, err)
	}
}

// TestFlightPutNeverOverwrites: Put fills an absent key only.
func TestFlightPutNeverOverwrites(t *testing.T) {
	var f Flight[int]
	f.Put("seeded", 1)
	f.Put("seeded", 2)
	if _, _, err := f.Get(context.Background(), "built", func() (int, error) { return 3, nil }); err != nil {
		t.Fatal(err)
	}
	f.Put("built", 4)
	for key, want := range map[string]int{"seeded": 1, "built": 3} {
		if v, led, _ := f.Get(context.Background(), key, func() (int, error) { return -1, nil }); v != want || led {
			t.Errorf("%s = %d (led %v), want %d", key, v, led, want)
		}
	}
	if got, want := f.Stats(), (FlightStats{Leads: 1, Builds: 1, Hits: 2, Entries: 2}); got != want {
		t.Errorf("%+v, want %+v", got, want)
	}
}

// TestFlightEviction: a bounded Flight drops the least recently used
// key to make room; capacity 0 never drops one.
func TestFlightEviction(t *testing.T) {
	var f Flight[string]
	f.resize(2)
	led := func(key string) bool {
		_, led, _ := f.Get(context.Background(), key, func() (string, error) { return key, nil })
		return led
	}
	for i, step := range []struct {
		key string
		led bool
	}{
		{"a", true}, {"b", true}, {"a", false}, // a is the most recently used
		{"c", true},  // evicts b
		{"a", false}, // still there
		{"b", true},  // evicted; coming back evicts c
		{"a", false},
		{"c", true},
	} {
		if got := led(step.key); got != step.led {
			t.Fatalf("step %d (%s): led=%v, want %v", i, step.key, got, step.led)
		}
	}
	if got := f.Stats(); got.Evictions != 3 || got.Entries != 2 {
		t.Errorf("%+v, want 3 evictions and 2 entries", got)
	}

	var unbounded Flight[int]
	for round := 0; round < 2; round++ {
		for i := 0; i < 1000; i++ {
			if _, led, _ := unbounded.Get(context.Background(), fmt.Sprint(i), func() (int, error) { return i, nil }); led != (round == 0) {
				t.Fatalf("round %d key %d: led=%v", round, i, led)
			}
		}
	}
	if got, want := unbounded.Stats(), (FlightStats{Leads: 1000, Builds: 1000, Hits: 1000, Entries: 1000}); got != want {
		t.Errorf("capacity 0: %+v, want %+v", got, want)
	}
}
