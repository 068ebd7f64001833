package main

import "time"

// The reference kernel is how rowperf tells the host's speed from the
// program's. The sandbox the benchmark runs on shares its cores: the
// same work takes 10–20% more or less wall time from one 12-second
// pass to the next, and a register-only loop up to twice as long from
// one second to the next, drifting on every time scale — a longer
// pass barely averages it out. So the end-to-end pass runs a fixed
// piece of work of rowperf's own, which no change to the simulator
// can touch, before and after each unit, and quotes the unit's host
// time in reference seconds: wall time × refNominal / what the kernel
// took just then. On a host that runs the kernel in refNominal a
// reference second is a second.
//
// The kernel is half arithmetic (a xorshift chain in registers) and
// half memory latency (a pointer chase round a 4 MB cycle, out of L2),
// about what a simulator unit is made of. Ten passes of one input
// spread 10–11% in wall seconds and 4–6% in reference seconds.
const (
	refSpinIters  = 30_000_000
	refChaseSteps = 1_500_000
	// refNominal is what the kernel usually takes on the reference
	// host (the 2-CPU sandbox) between two units, with the unit's data
	// and not its own in the caches: the median of 60 passes was
	// 121 ms. Alone in a process it takes 96 ms at best.
	refNominal = 120 * time.Millisecond
)

// refCycle is one random cycle through 1<<20 slots (Sattolo's
// shuffle), so that a chase visits all of it and cannot be prefetched.
var refCycle = func() []uint32 {
	a := make([]uint32, 1<<20)
	for i := range a {
		a[i] = uint32(i)
	}
	s := uint64(88172645463325252)
	for i := len(a) - 1; i > 0; i-- {
		s = xorshift(s)
		j := s % uint64(i)
		a[i], a[j] = a[j], a[i]
	}
	return a
}()

// refSink keeps the kernel's results alive, and makes each run start
// where the last one ended.
var refSink uint64

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// refKernel runs the reference kernel once and returns how long the
// host took over it.
func refKernel() time.Duration {
	start := time.Now()
	x := refSink | 1
	for i := 0; i < refSpinIters; i++ {
		x = xorshift(x)
	}
	p := uint32(x) % uint32(len(refCycle))
	for i := 0; i < refChaseSteps; i++ {
		p = refCycle[p]
	}
	refSink = x + uint64(p)
	return time.Since(start)
}

// hostSpeed is the host's speed while a unit ran, as a share of the
// reference host's: from the kernel runs just before and just after it.
func hostSpeed(before, after time.Duration) float64 {
	return ratio(2*float64(refNominal), float64(before+after))
}
