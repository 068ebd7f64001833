package experiments

import (
	"fmt"
	"slices"
	"sync"

	"rowsim/internal/config"
	"rowsim/internal/sim"
	"rowsim/internal/trace"
	"rowsim/internal/workload"
)

// This file is the set-up cache. A figure or a sweep runs one trace set
// under many policy variants, and neither the trace nor the warm caches
// depend on the variant: workload.Generate is a function of (workload
// parameters, cores, instrs, seed) and System.Warm of the programs, the
// workload's warm filter and the memory geometry. So the first cell
// over a trace set generates it, builds its system the ordinary way
// (sim.New, which warms) and takes the system's warm image; every later
// cell over the same set is built from the shared programs and that
// image (sim.WithWarmImage) and pays neither Generate nor Warm — or
// Generate only, when the programs were dropped before the image.
//
// A Setup belongs to whoever runs the cells — a Runner, a rowserve
// Server, one rowsweep invocation — and dies with it; nothing here is
// package-level state. Programs and images are read-only once
// published, which is what lets concurrent cells share them.

// Setup caches trace sets for one owner. It is safe for concurrent use.
//
// A trace set is two things with two lifetimes. The programs are the
// larger half and the cheaper to make again, so they are kept for as
// many sets as the owner runs cells at once: enough that concurrent
// cells share them. The warm images are kept for one set more: figures
// and SweepSpec.Cells are both trace-set-major, so concurrent cells
// straddle at most that many sets, and the extra image is what lets a
// figure suite over two workloads come back to the first without
// warming it again (a set whose programs went and whose image stayed
// costs a Generate, a third of its set-up).
type Setup struct {
	progs  flight[[]trace.Program]
	images flight[*sim.WarmImage]
}

// SetupStats counts what a Setup did: trace sets generated, warm images
// taken (a sim.New that warmed), cells built from an image that was
// already there, and images dropped to make room.
type SetupStats struct {
	Generated, Warmed, Reused, Evicted uint64
}

func (n SetupStats) String() string {
	return fmt.Sprintf("set-up: %d trace set(s) generated, %d warmed, %d cell(s) reused a warm image, %d evicted",
		n.Generated, n.Warmed, n.Reused, n.Evicted)
}

// NewSetup builds the cache for an owner that runs up to runs cells at
// once.
func NewSetup(runs int) *Setup {
	c := &Setup{}
	c.setRuns(runs)
	return c
}

// setRuns resizes the cache for an owner whose concurrency changed.
func (c *Setup) setRuns(runs int) {
	runs = max(runs, 1)
	c.progs.resize(runs)
	c.images.resize(runs + 1)
}

// Stats returns the counters so far.
func (c *Setup) Stats() SetupStats {
	generated, _, _ := c.progs.counts()
	warmed, reused, evicted := c.images.counts()
	return SetupStats{Generated: generated, Warmed: warmed, Reused: reused, Evicted: evicted}
}

// System builds the system of one cell: wp's traces for cores × instrs
// at seed, under cfg, warm filter included. The result is what
//
//	sim.New(cfg, workload.Generate(wp, cores, instrs, seed),
//		sim.WithWarmFilter(workload.WarmFilter(wp)), opts...)
//
// returns — same state, bit for bit — whether this call generated and
// warmed the set or found it. Two calls wanting a set nobody has make
// it once: the second waits for the first.
func (c *Setup) System(cfg *config.Config, wp workload.Params, cores, instrs int, seed uint64, opts ...sim.Option) (*sim.System, error) {
	opts = append([]sim.Option{sim.WithWarmFilter(workload.WarmFilter(wp))}, opts...)
	set := ContentKey(wp, cores, instrs, seed)
	progs, _, _ := c.progs.get(set, func() ([]trace.Program, error) {
		return workload.Generate(wp, cores, instrs, seed), nil
	})
	// The image's key adds the geometry it was taken under, so it is
	// only ever offered to a system it fits (sim.New checks again). The
	// cell that finds no image is the one whose system Warm builds, and
	// it keeps that system.
	var warmed *sim.System
	img, led, err := c.images.get(ContentKey(set, cfg.Mem, cfg.NumCores, cfg.WarmCaches), func() (*sim.WarmImage, error) {
		s, err := sim.New(cfg, progs, opts...)
		if err != nil {
			return nil, err
		}
		warmed = s
		return s.WarmImage(), nil
	})
	if led {
		return warmed, err
	}
	return sim.New(cfg, progs, append(opts, sim.WithWarmImage(img))...)
}

// flight is a small least-recently-used cache of values that are built
// once however many callers want them: the first caller to ask for a
// key builds, the others wait for it.
type flight[V any] struct {
	mu   sync.Mutex
	cap  int
	ents []*flightEntry[V] // most recently used first

	built, hits, evicted uint64
}

// flightEntry is one cached value. Its builder fills v, sets ok and
// closes ready; everyone else waits for ready and only reads.
type flightEntry[V any] struct {
	key   string
	ready chan struct{}
	v     V
	ok    bool
}

func (f *flight[V]) resize(n int) {
	f.mu.Lock()
	f.cap = n
	f.mu.Unlock()
}

func (f *flight[V]) counts() (built, hits, evicted uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.built, f.hits, f.evicted
}

// get returns the value for key, building it when it is not there; led
// says this call was the one that built it. A build that fails — with
// an error, which get returns, or a panic (the supervisor contains
// those) — caches nothing: waiters and later callers start over.
func (f *flight[V]) get(key string, build func() (V, error)) (v V, led bool, err error) {
	for {
		e, lead := f.claim(key)
		if lead {
			v, err = f.lead(e, build)
			return v, true, err
		}
		<-e.ready // closed by the builder however its build ends
		if e.ok {
			f.mu.Lock()
			f.hits++
			f.mu.Unlock()
			return e.v, false, nil
		}
	}
}

// claim returns the entry for key, most recently used from now on, and
// whether the caller created it and so must build.
func (f *flight[V]) claim(key string) (e *flightEntry[V], lead bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, e := range f.ents {
		if e.key == key {
			copy(f.ents[1:i+1], f.ents[:i])
			f.ents[0] = e
			return e, false
		}
	}
	// Make room by forgetting the least recently used; whoever still
	// holds one keeps it alive until they are done with it.
	for len(f.ents) >= f.cap {
		f.ents = f.ents[:len(f.ents)-1]
		f.evicted++
	}
	e = &flightEntry[V]{key: key, ready: make(chan struct{})}
	f.ents = append([]*flightEntry[V]{e}, f.ents...)
	return e, true
}

// lead builds e's value and publishes it, or withdraws e.
func (f *flight[V]) lead(e *flightEntry[V], build func() (V, error)) (v V, err error) {
	defer func() {
		f.mu.Lock()
		if e.ok {
			f.built++
		} else {
			f.ents = slices.DeleteFunc(f.ents, func(have *flightEntry[V]) bool { return have == e })
		}
		f.mu.Unlock()
		close(e.ready)
	}()
	if v, err = build(); err == nil {
		e.v, e.ok = v, true
	}
	return v, err
}
