package experiments

import (
	"context"
	"fmt"

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
// (sim.New) and takes the system's warm image, which runs the warm;
// every later cell over the same set is built from the shared programs
// and that image (sim.WithWarmImage) and pays neither Generate nor Warm
// — or Generate only, when the programs were dropped before the image.
// A cell that resumes a checkpoint does not restore the image either:
// RestoreSnap drops it.
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
// and rowsweep/rowserve sweeps are both trace-set-major, so concurrent cells
// straddle at most that many sets, and the extra image is what lets a
// figure suite over two workloads come back to the first without
// warming it again (a set whose programs went and whose image stayed
// costs a Generate, a third of its set-up).
type Setup struct {
	progs  Flight[[]trace.Program]
	images Flight[*sim.WarmImage]
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
	progs, images := c.progs.Stats(), c.images.Stats()
	return SetupStats{Generated: progs.Builds, Warmed: images.Builds, Reused: images.Hits, Evicted: images.Evictions}
}

// System builds the system of one cell: wp's traces for cores × instrs
// at seed, under cfg, warm filter included. The result is what
//
//	sim.New(cfg, workload.Generate(wp, cores, instrs, seed),
//		sim.WithWarmFilter(workload.WarmFilter(wp)), opts...)
//
// returns — same state, bit for bit — whether this call generated and
// warmed the set or found it. Two calls wanting a set nobody has make
// it once: the second waits for the first, or stops waiting when ctx
// ends.
func (c *Setup) System(ctx context.Context, cfg *config.Config, wp workload.Params, cores, instrs int, seed uint64, opts ...sim.Option) (*sim.System, error) {
	opts = append([]sim.Option{sim.WithWarmFilter(workload.WarmFilter(wp))}, opts...)
	set := ContentKey(wp, cores, instrs, seed)
	progs, _, err := c.progs.Get(ctx, set, func() ([]trace.Program, error) {
		return workload.Generate(wp, cores, instrs, seed), nil
	})
	if err != nil {
		return nil, err
	}
	// The image's key adds the geometry it was taken under, so it is
	// only ever offered to a system it fits (sim.New checks again). The
	// cell that finds no image is the one whose system Warm builds, and
	// it keeps that system.
	var warmed *sim.System
	img, led, err := c.images.Get(ctx, ContentKey(set, cfg.Mem, cfg.NumCores, cfg.WarmCaches), func() (*sim.WarmImage, error) {
		s, err := sim.New(cfg, progs, opts...)
		if err != nil {
			return nil, err
		}
		warmed = s
		return s.WarmImage(), nil
	})
	if led || err != nil {
		return warmed, err
	}
	return sim.New(cfg, progs, append(opts, sim.WithWarmImage(img))...)
}
