package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"rowsim/internal/config"
	"rowsim/internal/experiments"
	"rowsim/internal/sim"
	"rowsim/internal/sram"
	"rowsim/internal/trace"
	"rowsim/internal/workload"
)

// cellSpec is one simulation cell: a generated workload on one
// system configuration.
type cellSpec struct {
	wl      string
	cores   int
	instrs  int
	variant experiments.Variant
	cold    bool // caches start empty
	l3Bytes int  // per-bank L3 size; 0 keeps Table I's 4 MB
}

func (c cellSpec) config() *config.Config {
	cfg := c.variant.Config(c.cores)
	cfg.WarmCaches = !c.cold
	if c.l3Bytes != 0 {
		cfg.Mem.L3.SizeBytes = c.l3Bytes
	}
	return cfg
}

// generate makes the cell's inputs. The simulator only ever sees what
// this returns: the seed goes to the generator and nowhere else.
func (c cellSpec) generate(seed uint64) (workload.Params, []trace.Program, error) {
	p, err := workload.Get(c.wl)
	if err != nil {
		return p, nil, err
	}
	return p, workload.Generate(p, c.cores, c.instrs, seed), nil
}

// buildCell is the first half of the journey a user's cell takes —
// workload.Generate, then sim.New (which warms) — with a span around
// each call.
func buildCell(tr *tracer, parent int, seed uint64, c cellSpec, opts ...sim.Option) (*sim.System, error) {
	id := tr.begin(parent, "workload.Generate")
	p, progs, err := c.generate(seed)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin(parent, "sim.New")
	sys, err := sim.New(c.config(), progs, append([]sim.Option{sim.WithWarmFilter(workload.WarmFilter(p))}, opts...)...)
	tr.end(id)
	return sys, err
}

// runCell is the whole journey: buildCell, then Run.
func runCell(tr *tracer, parent int, seed uint64, c cellSpec, opts ...sim.Option) (sim.Result, error) {
	sys, err := buildCell(tr, parent, seed, c, opts...)
	if err != nil {
		return sim.Result{}, err
	}
	id := tr.begin(parent, "System.Run")
	res, err := sys.Run()
	tr.end(id)
	return res, err
}

// digester hashes every Result of a unit in order; two commits whose
// digests match produced identical simulated statistics.
type digester struct{ parts []byte }

func (d *digester) add(v any) { d.parts = fmt.Appendf(d.parts, "%+v\n", v) }

func (d *digester) sum() string {
	h := sha256.Sum256(d.parts)
	return hex.EncodeToString(h[:8])
}

// checks counts invariant checks and how many failed; each is an
// operation in failed_frac. The first failures are kept for the log.
type checks struct {
	n, failed int
	msgs      []string
}

func (k *checks) expect(ok bool, format string, args ...any) {
	k.n++
	if !ok {
		k.failed++
		if len(k.msgs) < 8 {
			k.msgs = append(k.msgs, fmt.Sprintf(format, args...))
		}
	}
}

func (k *checks) merge(o checks) {
	k.n += o.n
	k.failed += o.failed
	k.msgs = append(k.msgs, o.msgs...)
}

// memMark is a reading of the allocator's and collector's running
// totals; the per-phase numbers are differences of two.
type memMark struct {
	bytes, mallocs uint64
	gcs            uint32
	pauseNS        uint64
}

func markMem() memMark {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memMark{m.TotalAlloc, m.Mallocs, m.NumGC, m.PauseTotalNs}
}

const mb = 1 << 20

// layerAcc sums one traced pass over a workload's probe cells; emit
// turns the sums into the sim/interconnect/coherence/cache/core/
// predictor blocks of the ledger.
type layerAcc struct {
	gen, newT, warm, run, runCycle time.Duration
	newAlloc, warmAlloc, runAlloc  uint64
	runMallocs                     uint64
	genInstrs                      uint64

	cycles, visited, committed, msgs           uint64
	atomics, eager, lazy, fwd, forced          uint64
	lqSquashes, mispredicts, predictedLazy     uint64
	lockHoldP99                                float64
	predAccSum                                 float64
	predAccN                                   int
	gets, getx, stalled, l3Hits, l3Misses      uint64
	accesses, l1Hits, l2Hits, misses, mshrFull uint64
	extStalls, invals, prefetches, writebacks  uint64
	missLatSum                                 float64
	missLatN                                   uint64

	drv lockstepOut // summed over cells

	lookupT, insertT time.Duration
	lookups, inserts uint64
	replayHits       uint64
}

// probeCell splits one cell by layer: the same calls runCell makes,
// with sim.New and System.Warm timed apart, then the same inputs
// under the cycle scheduler and through the lock-step driver. The
// span durations are the measurements, so tr must not be nil. It
// returns the cell's simulated cycles (0 if the cell failed).
func probeCell(tr *tracer, parent int, seed uint64, c cellSpec, a *layerAcc, k *checks) (cycles uint64) {
	id := tr.begin(parent, "workload.Generate")
	p, progs, err := c.generate(seed)
	a.gen += tr.end(id)
	if err != nil {
		k.expect(false, "probe %s: %v", c.wl, err)
		return
	}
	for _, prog := range progs {
		a.genInstrs += uint64(len(prog))
	}
	filter := sim.WithWarmFilter(workload.WarmFilter(p))

	cold := c.config()
	cold.WarmCaches = false
	m0 := markMem()
	id = tr.begin(parent, "sim.New")
	sys, err := sim.New(cold, progs, filter)
	a.newT += tr.end(id)
	if err != nil {
		k.expect(false, "probe %s: sim.New: %v", c.wl, err)
		return
	}
	m1 := markMem()
	if !c.cold {
		id = tr.begin(parent, "System.Warm")
		sys.Warm(progs)
		a.warm += tr.end(id)
	}
	m2 := markMem()
	id = tr.begin(parent, "System.Run")
	res, err := sys.Run()
	a.run += tr.end(id)
	m3 := markMem()
	if err != nil {
		k.expect(false, "probe %s: Run: %v", c.wl, err)
		return
	}
	a.newAlloc += m1.bytes - m0.bytes
	a.warmAlloc += m2.bytes - m1.bytes
	a.runAlloc += m3.bytes - m2.bytes
	a.runMallocs += m3.mallocs - m2.mallocs

	a.cycles += res.Cycles
	a.visited += res.CyclesVisited
	a.committed += res.Committed
	a.msgs += res.NetworkMessages
	a.atomics += res.Atomics
	a.eager += res.EagerIssued
	a.lazy += res.LazyIssued
	a.fwd += res.ForwardedAtomics
	a.forced += res.ForcedReleases
	a.lqSquashes += res.LQSquashes
	a.mispredicts += res.Mispredicts
	a.predictedLazy += res.PredictedLazy
	if res.LockHoldP99 > a.lockHoldP99 {
		a.lockHoldP99 = res.LockHoldP99
	}
	if c.variant.Policy == config.PolicyRoW {
		a.predAccSum += res.PredAccuracy
		a.predAccN++
	}
	for _, d := range sys.Directories() {
		a.gets += d.Stats.GetS.Value()
		a.getx += d.Stats.GetX.Value()
		a.stalled += d.Stats.Stalled.Value()
		a.l3Hits += d.Stats.L3Hits.Value()
		a.l3Misses += d.Stats.L3Misses.Value()
	}
	for _, pc := range sys.Caches() {
		st := &pc.Stats
		a.accesses += st.Accesses.Value()
		a.l1Hits += st.L1Hits.Value()
		a.l2Hits += st.L2Hits.Value()
		a.misses += st.Misses.Value()
		a.mshrFull += st.MSHRFull.Value()
		a.extStalls += st.ExtStalls.Value()
		a.invals += st.Invalidations.Value()
		a.prefetches += st.Prefetches.Value()
		a.writebacks += st.Writebacks.Value()
		a.missLatSum += st.MissLatency.Sum()
		a.missLatN += st.MissLatency.Count()
	}

	// The reference loop on the same inputs: its wall against the
	// event scheduler's, and its Result against it.
	sysC, err := sim.New(c.config(), progs, filter, sim.WithScheduler(sim.SchedCycle))
	if err != nil {
		k.expect(false, "probe %s: sim.New (cycle): %v", c.wl, err)
		return
	}
	id = tr.begin(parent, "System.Run(cycle)")
	resC, err := sysC.Run()
	a.runCycle += tr.end(id)
	k.expect(err == nil && resC.SchedNormalized() == res.SchedNormalized(),
		"probe %s/%s: SchedCycle and SchedEvent results differ (err=%v)", c.wl, c.variant.Name, err)

	id = tr.begin(parent, "lockstep")
	drv, err := lockstep(c.config(), progs, workload.WarmFilter(p))
	tr.end(id)
	k.expect(err == nil && drv.cycles == resC.Cycles && drv.committed == resC.Committed && drv.msgs == resC.NetworkMessages,
		"probe %s/%s: lock-step driver %d cycles/%d instrs/%d msgs, System.Run %d/%d/%d (err=%v)",
		c.wl, c.variant.Name, drv.cycles, drv.committed, drv.msgs, resC.Cycles, resC.Committed, resC.NetworkMessages, err)
	a.drv.add(drv)

	cfg := c.config()
	a.replay(progs[0], cfg.Mem.L1D.SizeBytes, cfg.Mem.L1D.Ways, cfg.Mem.LineBytes)
	a.replay(progs[0], cfg.Mem.L3.SizeBytes, cfg.Mem.L3.Ways, cfg.Mem.LineBytes)
	return res.Cycles
}

// replay drives one core's memory-address stream through an sram
// array of the given geometry the way a cache level does — Lookup,
// Insert on a miss — for the hit rate, then times the two operations
// apart: lookups over the stream on the filled array, and the
// replay's misses inserted into fresh arrays.
func (a *layerAcc) replay(prog trace.Program, size, ways, lineBytes int) {
	const minOps = 100_000
	mask := ^uint64(lineBytes - 1)
	var stream []uint64
	for i := range prog {
		if prog[i].IsMem() {
			stream = append(stream, prog[i].Addr&mask)
		}
	}
	if len(stream) == 0 {
		return
	}
	rounds := minOps/len(stream) + 1
	arr := sram.New(size, ways, lineBytes)
	var missed []uint64
	for r := 0; r < rounds; r++ {
		for _, line := range stream {
			if arr.Lookup(line, true) != nil {
				a.replayHits++
				continue
			}
			arr.Insert(line, 1)
			missed = append(missed, line)
		}
	}
	a.lookups += uint64(rounds * len(stream))

	start := time.Now()
	for r := 0; r < rounds; r++ {
		for _, line := range stream {
			arr.Lookup(line, true)
		}
	}
	a.lookupT += time.Since(start)

	// At most 16 fresh arrays: a warm stream misses a few hundred
	// lines, and an L3-bank array is 2 MB to allocate and clear.
	for n, k := 0, 0; n < minOps/4 && k < 16; n, k = n+len(missed), k+1 {
		fresh := sram.New(size, ways, lineBytes)
		start = time.Now()
		for _, line := range missed {
			fresh.Insert(line, 1)
		}
		a.insertT += time.Since(start)
		a.inserts += uint64(len(missed))
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// per divides a duration by a count, in nanoseconds; 0 when there is
// nothing to divide by.
func per(d time.Duration, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(n)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// emit writes the accumulated pass into the ledger.
func (a *layerAcc) emit(l ledger) {
	l.add("workload.generate_ms", ms(a.gen))
	l.add("workload.generate_ns_per_instr", per(a.gen, a.genInstrs))

	setup := a.gen + a.newT + a.warm
	l.add("sim.new_ms", ms(a.newT))
	l.add("sim.warm_ms", ms(a.warm))
	l.add("sim.run_ms", ms(a.run))
	l.add("sim.setup_share", ratio(float64(setup), float64(setup+a.run)))
	l.add("sim.run_ns_per_visit", per(a.run, a.visited))
	l.add("sim.run_ns_per_instr", per(a.run, a.committed))
	l.add("sim.new_alloc_mb", float64(a.newAlloc)/mb)
	l.add("sim.warm_alloc_mb", float64(a.warmAlloc)/mb)
	l.add("sim.run_alloc_mb", float64(a.runAlloc)/mb)
	l.add("sim.run_mallocs", float64(a.runMallocs))
	l.add("sim.cycle_sched_wall_ratio", ratio(float64(a.runCycle), float64(a.run)))
	l.add("sim.cycles", float64(a.cycles))
	l.add("sim.cycles_visited", float64(a.visited))
	l.add("sim.skip_eff", 1-ratio(float64(a.visited), float64(a.cycles)))
	l.add("sim.committed", float64(a.committed))
	l.add("sim.ipc", ratio(float64(a.committed), float64(a.cycles)))

	loop := float64(a.drv.loop)
	l.add("interconnect.tick_share", ratio(float64(a.drv.mesh), loop))
	l.add("interconnect.tick_ns_per_cycle", per(a.drv.mesh, a.drv.cycles))
	l.add("interconnect.msgs", float64(a.msgs))
	l.add("interconnect.msgs_per_kinstr", ratio(float64(a.msgs)*1000, float64(a.committed)))
	l.add("interconnect.avg_hops", ratio(a.drv.hops, float64(a.drv.msgs)))

	l.add("coherence.handle_share", ratio(float64(a.drv.banks), loop))
	l.add("coherence.handle_ns_per_msg", per(a.drv.banks, a.drv.handled))
	l.add("coherence.msgs_handled", float64(a.drv.handled))
	l.add("coherence.gets", float64(a.gets))
	l.add("coherence.getx", float64(a.getx))
	l.add("coherence.stalled", float64(a.stalled))
	l.add("coherence.l3_hits", float64(a.l3Hits))
	l.add("coherence.l3_misses", float64(a.l3Misses))

	l.add("cache.tick_share", ratio(float64(a.drv.caches), loop))
	l.add("cache.tick_ns_per_tick", per(a.drv.caches, a.drv.cacheTicks))
	l.add("cache.accesses", float64(a.accesses))
	l.add("cache.l1_hits", float64(a.l1Hits))
	l.add("cache.l2_hits", float64(a.l2Hits))
	l.add("cache.misses", float64(a.misses))
	l.add("cache.miss_lat_cycles", ratio(a.missLatSum, float64(a.missLatN)))
	l.add("cache.mshr_full", float64(a.mshrFull))
	l.add("cache.ext_stalls", float64(a.extStalls))
	l.add("cache.invalidations", float64(a.invals))
	l.add("cache.prefetches", float64(a.prefetches))
	l.add("cache.writebacks", float64(a.writebacks))

	l.add("sram.lookup_ns_per_op", per(a.lookupT, a.lookups))
	l.add("sram.insert_ns_per_op", per(a.insertT, a.inserts))
	l.add("sram.replay_hit_rate", ratio(float64(a.replayHits), float64(a.lookups)))

	l.add("core.tick_share", ratio(float64(a.drv.cores), loop))
	l.add("core.tick_ns_per_tick", per(a.drv.cores, a.drv.coreTicks))
	l.add("core.ns_per_instr", per(a.drv.cores, a.drv.committed))
	l.add("core.atomics", float64(a.atomics))
	l.add("core.eager_issued", float64(a.eager))
	l.add("core.lazy_issued", float64(a.lazy))
	l.add("core.forwarded_atomics", float64(a.fwd))
	l.add("core.forced_releases", float64(a.forced))
	l.add("core.lq_squashes", float64(a.lqSquashes))
	l.add("core.mispredicts", float64(a.mispredicts))
	l.add("core.lock_hold_p99_cycles", a.lockHoldP99)

	l.add("predictor.accuracy", ratio(a.predAccSum, float64(a.predAccN)))
	l.add("predictor.predicted_lazy", float64(a.predictedLazy))

	l.add("trace.driver_vs_run_ratio", ratio(loop, float64(a.runCycle)))
}
