package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"rowsim/internal/checkpoint"
	"rowsim/internal/experiments"
	"rowsim/internal/sim"
	"rowsim/internal/stats"
	"rowsim/internal/workload"
)

// unitOut is what one repetition of a workload's unit delivered.
type unitOut struct {
	cells  int    // completed simulation cells, memo-served ones included
	instrs uint64 // simulated committed instructions delivered
	cycles uint64 // simulated cycles of those cells
	digest string // hash of every Result in unit order
	input  int    // which of the workload's generated inputs the unit ran

	// paused is time the unit spent on the harness's behalf, not the
	// workload's (see emptyPools); the harness takes it off the
	// unit's wall time.
	paused time.Duration

	// sweepMS holds one latency per sweep on serve-sweeps; elsewhere
	// it is empty and the unit's own wall time is the latency sample.
	sweepMS []float64

	// layer carries the per-layer numbers only the unit itself can
	// see (spans around its calls); filled when the unit is traced.
	layer map[string]float64

	checks // every cell, sweep and invariant check is an operation
}

// bench is one workload. All six are closed loops driven from this
// process: the harness calls unit back to back on one goroutine.
type bench interface {
	// setup generates the inputs of the first unit, creates temp
	// dirs, opens the daemon and runs the untimed warm-up unit.
	setup() error
	// unit runs one repetition; a nil tracer means tracing is off.
	unit(tr *tracer) unitOut
	// verify runs the invariant checks too costly for every unit.
	verify() checks
	// probe is the traced pass's per-layer measurement.
	probe(tr *tracer, l ledger) checks
	// close removes temp files and stops everything setup started.
	close() error
}

// ledger collects per-layer samples by metric name across traced
// iterations.
type ledger map[string][]float64

func (l ledger) add(name string, v float64) { l[name] = append(l[name], v) }

// sizes scales the workloads. full is the benchmark; small exists so
// the tier-1 smoke test can run every workload in seconds, and its
// numbers mean nothing.
type sizes struct {
	cores32, cores8        int
	instrsFig              int // figcells-8c and serve-sweeps cells
	instrsContended        int
	instrsCold, instrsSpin int
	instrsCkpt             int
	l3Ckpt                 int // ckpt-8c's L3 bank size (0 = Table I): the L3 is most of a snapshot
	sweepsPerTenant        int // per serve-sweeps round
}

var (
	full = sizes{
		cores32: 32, cores8: 8, instrsFig: 3000, instrsContended: 24000,
		instrsCold: 20000, instrsSpin: 24000, instrsCkpt: 12000, sweepsPerTenant: 6,
	}
	small = sizes{
		cores32: 4, cores8: 2, instrsFig: 800, instrsContended: 1500,
		instrsCold: 1500, instrsSpin: 1500, instrsCkpt: 3000, l3Ckpt: 128 << 10, sweepsPerTenant: 2,
	}
)

// seedPool derives n generator seeds from the benchmark seed. Seed 0
// is skipped: the generators treat it as "unset".
func seedPool(seed uint64, n int) []uint64 {
	pool := make([]uint64, n)
	for i := range pool {
		// splitmix64 steps from the seed; the first is the seed itself
		// so that -seed 1 runs the traces every other tool calls seed 1.
		if pool[i] = seed; pool[i] == 0 {
			pool[i] = 0x9e3779b97f4a7c15
		}
		seed += 0x9e3779b97f4a7c15
		seed = (seed ^ (seed >> 30)) * 0xbf58476d1ce4e5b9
		seed = (seed ^ (seed >> 27)) * 0x94d049bb133111eb
		seed ^= seed >> 31
	}
	return pool
}

// newBench builds a workload. poolSize is how many generated inputs
// the simulator workloads rotate through (see inputs).
func newBench(name string, seed uint64, sz sizes, poolSize int) (bench, error) {
	pool := seedPool(seed, poolSize)
	seed = pool[0]
	switch name {
	case "figcells-8c":
		return &figBench{inputs: inputs{seeds: pool}, cores: sz.cores8, instrs: sz.instrsFig}, nil
	case "contended-32c":
		return &directBench{inputs: inputs{seeds: pool}, rowOverEager: true, cells: []cellSpec{
			{wl: "sps", cores: sz.cores32, instrs: sz.instrsContended, variant: experiments.VarEager},
			{wl: "sps", cores: sz.cores32, instrs: sz.instrsContended, variant: experiments.VarDirUD},
		}}, nil
	case "coldmiss-32c":
		return &directBench{inputs: inputs{seeds: pool}, cells: []cellSpec{
			{wl: "canneal", cores: sz.cores32, instrs: sz.instrsCold, variant: experiments.VarDirUD, cold: true},
		}}, nil
	case "lockspin-32c":
		return &directBench{inputs: inputs{seeds: pool}, cells: []cellSpec{
			{wl: "tas", cores: sz.cores32, instrs: sz.instrsSpin, variant: experiments.VarDirUD},
		}}, nil
	case "ckpt-8c":
		return &ckptBench{inputs: inputs{seeds: pool},
			cell: cellSpec{wl: "sps", cores: sz.cores8, instrs: sz.instrsCkpt, variant: experiments.VarDirUD, l3Bytes: sz.l3Ckpt}}, nil
	case "serve-sweeps":
		return &serveBench{seed: seed, cores: sz.cores8, instrs: sz.instrsFig, perTenant: sz.sweepsPerTenant}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// warmUp runs the untimed first unit and turns a failed one into a
// set-up error.
func warmUp(b bench) error {
	if out := b.unit(nil); out.failed > 0 {
		return fmt.Errorf("warm-up unit failed: %s", strings.Join(out.msgs, "; "))
	}
	return nil
}

// inputs is the pool of generator seeds a simulator workload rotates
// through, one per unit.
//
// One generated trace set is a small sample of its workload: at 32
// cores the simulated cycles per instruction of sps differ by ±20%
// from one generator seed to the next (by as much over the 36 short
// cells of figcells-8c), and host time follows. So that
// a run measures the workload and not one draw of it, successive
// units take successive seeds of a pool derived from the benchmark
// seed; every pool seed must reproduce its digest each time it comes
// round.
type inputs struct {
	seeds []uint64
	units int // untraced units started so far
}

// next picks the coming unit's input. A traced unit repeats the input
// of the unit before it, so the two can be compared; an untraced one
// moves on through the pool.
func (p *inputs) next(tr *tracer) int {
	if tr == nil || p.units == 0 {
		p.units++
	}
	return p.current()
}

// current is the latest unit's input.
func (p *inputs) current() int { return (p.units - 1) % len(p.seeds) }

// warmUp runs b's untimed first unit on the pool's first seed; the
// first timed unit then starts the pool over.
func (p *inputs) warmUp(b bench) error {
	err := warmUp(b)
	p.units = 0
	return err
}

// directBench runs its cells straight through workload.Generate →
// sim.New → Run: contended-32c, coldmiss-32c and lockspin-32c.
type directBench struct {
	inputs
	cells        []cellSpec
	rowOverEager bool // cells are {eager, RoW}: report their cycle ratio

	last []sim.Result // the latest unit's results, in cell order
}

func (b *directBench) setup() error { return b.inputs.warmUp(b) }

func (b *directBench) unit(tr *tracer) unitOut {
	out := unitOut{input: b.next(tr)}
	var dg digester
	root := tr.begin(noSpan, "unit")
	b.last = b.last[:0]
	for _, c := range b.cells {
		res, err := runCell(tr, root, b.seeds[out.input], c)
		out.expect(err == nil, "%s under %s: %v", c.wl, c.variant.Name, err)
		out.cells++
		out.instrs += res.Committed
		out.cycles += res.Cycles
		dg.add(res)
		b.last = append(b.last, res)
	}
	tr.end(root)
	out.digest = dg.sum()
	return out
}

// verify reruns the latest unit's cells under the reference cycle
// loop: the two schedulers must agree on everything but the
// visited-cycle count.
func (b *directBench) verify() checks {
	var k checks
	seed := b.seeds[b.current()]
	for i, c := range b.cells {
		res, err := runCell(nil, noSpan, seed, c, sim.WithScheduler(sim.SchedCycle))
		k.expect(err == nil && res.SchedNormalized() == b.last[i].SchedNormalized(),
			"%s under %s: SchedCycle result differs from SchedEvent (err=%v)", c.wl, c.variant.Name, err)
	}
	return k
}

// probe splits the cells by layer on the pool's first seed, so the
// ledger's counts repeat from one iteration to the next.
func (b *directBench) probe(tr *tracer, l ledger) checks {
	var k checks
	var acc layerAcc
	var cycles []uint64
	root := tr.begin(noSpan, "probe")
	for _, c := range b.cells {
		cycles = append(cycles, probeCell(tr, root, b.seeds[0], c, &acc, &k))
	}
	tr.end(root)
	acc.emit(l)
	if b.rowOverEager && len(cycles) == 2 {
		l.add("model.row_over_eager", ratio(float64(cycles[1]), float64(cycles[0])))
	}
	return k
}

func (b *directBench) close() error { return nil }

// figBench is figcells-8c: a fresh experiments.Runner regenerating
// nine figures over canneal and sps, 36 distinct cells.
type figBench struct {
	inputs
	cores, instrs int

	// instrsOf is the trace length per workload, by pool seed: the
	// runner reports cycles but not instructions, and every generated
	// instruction commits exactly once.
	instrsOf   []map[string]uint64
	lastDigest string
}

var figWorkloads = []string{"canneal", "sps"}

var figures = []struct {
	name string
	run  func(*experiments.Runner) *stats.Table
}{
	{"fig1", experiments.Fig1}, {"fig4", experiments.Fig4}, {"fig5", experiments.Fig5},
	{"fig6", experiments.Fig6}, {"fig9", experiments.Fig9}, {"fig10", experiments.Fig10},
	{"fig11", experiments.Fig11}, {"fig12", experiments.Fig12}, {"fig13", experiments.Fig13},
}

func (b *figBench) setup() error {
	b.instrsOf = make([]map[string]uint64, len(b.seeds))
	for k, seed := range b.seeds {
		b.instrsOf[k] = make(map[string]uint64)
		for _, wl := range figWorkloads {
			_, progs, err := cellSpec{wl: wl, cores: b.cores, instrs: b.instrs}.generate(seed)
			if err != nil {
				return err
			}
			for _, p := range progs {
				b.instrsOf[k][wl] += uint64(len(p))
			}
		}
	}
	return b.inputs.warmUp(b)
}

// runner is a fresh runner over pool seed k's traces.
func (b *figBench) runner(k int, sched sim.Scheduler, ran func(wl string)) *experiments.Runner {
	r := experiments.NewRunner(experiments.Options{
		Cores: b.cores, Instrs: b.instrs, Seed: b.seeds[k], Workloads: figWorkloads, Sched: sched,
	})
	r.SetJobs(1)
	// Progress fires once per simulated (not memo-served) cell with
	// "ran <workload> <variant> <cycles> cycles".
	r.Progress = func(msg string) {
		if f := strings.Fields(msg); len(f) > 1 {
			ran(f[1])
		}
	}
	return r
}

func (b *figBench) unit(tr *tracer) unitOut { return b.unitUnder(tr, b.next(tr), sim.SchedEvent) }

func (b *figBench) unitUnder(tr *tracer, k int, sched sim.Scheduler) (out unitOut) {
	out.input = k
	var dg digester
	r := b.runner(k, sched, func(wl string) {
		n, ok := b.instrsOf[k][wl]
		out.expect(ok, "runner reported a cell of unknown workload %q", wl)
		out.cells++
		out.instrs += n
	})
	if tr != nil {
		out.layer = make(map[string]float64)
	}
	root := tr.begin(noSpan, "unit")
	defer func() {
		// The figure harnesses panic on a failed cell (MustRun).
		if p := recover(); p != nil {
			out.expect(false, "figure run panicked: %v", p)
		}
		tr.end(root)
	}()
	for _, f := range figures {
		id := tr.begin(root, "experiments."+f.name)
		t := f.run(r)
		if d := tr.end(id); tr != nil {
			out.layer["experiments."+f.name+"_ms"] = ms(d)
		}
		dg.add(t.String())
	}
	out.cycles = r.SimulatedCycles()
	out.digest = dg.sum()
	if tr != nil {
		out.layer["experiments.cells_run"] = float64(out.cells)
	}
	if sched == sim.SchedEvent {
		b.lastDigest = out.digest
	}
	return out
}

// verify regenerates the latest unit's figures under the cycle
// scheduler (the tables must not change) and ties the runner to a
// direct run: the sps eager cell run by hand commits the generated
// trace length.
func (b *figBench) verify() checks {
	var k checks
	in, want := b.current(), b.lastDigest
	out := b.unitUnder(nil, in, sim.SchedCycle)
	k.merge(out.checks)
	k.expect(out.digest == want, "figure tables differ between SchedEvent (%s) and SchedCycle (%s)", want, out.digest)
	res, err := runCell(nil, noSpan, b.seeds[in], cellSpec{wl: "sps", cores: b.cores, instrs: b.instrs, variant: experiments.VarEager})
	k.expect(err == nil && res.Committed == b.instrsOf[in]["sps"],
		"direct sps/Eager run committed %d instructions, trace has %d (err=%v)", res.Committed, b.instrsOf[in]["sps"], err)
	return k
}

func (b *figBench) probe(tr *tracer, l ledger) checks {
	var k checks
	var acc layerAcc
	root := tr.begin(noSpan, "probe")
	for _, wl := range figWorkloads {
		probeCell(tr, root, b.seeds[0], cellSpec{wl: wl, cores: b.cores, instrs: b.instrs, variant: experiments.VarDirUD}, &acc, &k)
	}
	tr.end(root)
	acc.emit(l)

	// What the shared memo saves: the cells the nine figures would
	// simulate each on a runner of its own, against the 36 they
	// simulate on a shared one.
	shared, alone := 0, 0
	func() {
		defer func() {
			if p := recover(); p != nil {
				k.expect(false, "figure run panicked: %v", p)
			}
		}()
		rs := b.runner(0, sim.SchedEvent, func(string) { shared++ })
		for _, f := range figures {
			f.run(rs)
			f.run(b.runner(0, sim.SchedEvent, func(string) { alone++ }))
		}
	}()
	l.add("experiments.memo_hit_frac", 1-ratio(float64(shared), float64(alone)))
	return k
}

func (b *figBench) close() error { return nil }

// ckptBench is ckpt-8c: one cell run to completion with three durable
// checkpoints on the way, then resumed from the last file the way a
// restarted process would — regenerate, rebuild, Resume, Run.
type ckptBench struct {
	inputs
	cell cellSpec

	tmp string
	// plain holds, per pool seed, the cell run with checkpointing off:
	// the reference every checkpointed and resumed run must equal.
	plain    []sim.Result
	lastWall time.Duration
}

// every is the checkpoint interval for pool seed k: a quarter of the
// run, rounded up to the simulator's 1024-cycle checkpoint cadence. A
// fixed interval would make three saves on one seed and four on the
// next (the run is 25-36k cycles), and one save costs more than the
// whole simulation.
func (b *ckptBench) every(k int) uint64 { return (b.plain[k].Cycles/4 + 1023) &^ 1023 }

func (b *ckptBench) key(k int) string {
	return fmt.Sprintf("rowperf-%s-seed%d", b.cell.wl, b.seeds[k])
}

func (b *ckptBench) setup() error {
	tmp, err := os.MkdirTemp("", "rowperf-ckpt-")
	if err != nil {
		return err
	}
	b.tmp = tmp
	b.plain = b.plain[:0]
	for _, seed := range b.seeds {
		res, err := runCell(nil, noSpan, seed, b.cell)
		if err != nil {
			return err
		}
		b.plain = append(b.plain, res)
	}
	return b.inputs.warmUp(b)
}

func (b *ckptBench) unit(tr *tracer) unitOut {
	k := b.next(tr)
	out := unitOut{input: k}
	seed, key := b.seeds[k], b.key(k)
	var dg digester
	start := time.Now()
	path := filepath.Join(b.tmp, "cell.ckpt")
	_ = checkpoint.Remove(path) // the previous unit's generations
	root := tr.begin(noSpan, "unit")

	saves, saveT := 0, time.Duration(0)
	save := checkpoint.Saver(path, key)
	first, err := runCell(tr, root, seed, b.cell, sim.WithCheckpoint(b.every(k), func(cycle uint64, snap *sim.SysSnap) error {
		out.paused += emptyPools()
		id := tr.begin(root, "checkpoint.Save")
		err := save(cycle, snap)
		saveT += tr.end(id)
		saves++
		return err
	}))
	out.expect(saves > 0, "run of %d cycles never reached the %d-cycle checkpoint cadence", first.Cycles, b.every(k))
	out.expect(err == nil && first == b.plain[k], "checkpointed run differs from the plain one (err=%v)", err)

	// The restarted process: nothing survives but the file.
	var resumed sim.Result
	sys, err := buildCell(tr, root, seed, b.cell)
	if err == nil {
		id := tr.begin(root, "checkpoint.Resume")
		_, ok, rerr := checkpoint.Resume(sys, path, key)
		tr.end(id)
		out.expect(ok && rerr == nil, "resume from %s: ok=%v err=%v", path, ok, rerr)
		id = tr.begin(root, "System.Run")
		resumed, err = sys.Run()
		tr.end(id)
	}
	tr.end(root)
	out.expect(err == nil && resumed == first, "resumed result differs from the uninterrupted one (err=%v)", err)

	out.cells = 1
	out.instrs, out.cycles = first.Committed, first.Cycles
	dg.add(first)
	dg.add(resumed)
	out.digest = dg.sum()
	if tr != nil && saves > 0 {
		out.layer = map[string]float64{
			"checkpoint.save_ms": ms(saveT) / float64(saves),
			"checkpoint.saves":   float64(saves),
		}
	}
	b.lastWall = time.Since(start) - out.paused
	return out
}

// emptyPools runs the two collections that empty every sync.Pool and
// returns how long they took. encoding/json keeps its encode buffers
// in one: a save that finds a buffer there allocates 33 MB, one that
// does not grows a new one through 128 MB more, and which it is
// depends on whether two collections happened to run since the last
// save. In a simulation worth checkpointing saves are minutes apart
// and the pool is always empty; ckpt-8c packs three into a second, so
// it empties the pool before each save, off the clock. Its allocation
// then repeats to the megabyte.
func emptyPools() time.Duration {
	start := time.Now()
	runtime.GC()
	runtime.GC()
	return time.Since(start)
}

func (b *ckptBench) verify() checks {
	var k checks
	in := b.current()
	res, err := runCell(nil, noSpan, b.seeds[in], b.cell, sim.WithScheduler(sim.SchedCycle))
	k.expect(err == nil && res.SchedNormalized() == b.plain[in].SchedNormalized(), "SchedCycle result differs from SchedEvent (err=%v)", err)
	return k
}

// probe adds the checkpoint block to the sim-layer split, on the
// pool's first seed (the traced pass runs no other): a run
// whose checkpoint callback takes its own snapshot and encodes it in
// memory, then Load and RestoreSnap timed apart (Resume is the two
// together), then the cell with checkpointing off for the overhead.
func (b *ckptBench) probe(tr *tracer, l ledger) checks {
	var k checks
	var acc layerAcc
	root := tr.begin(noSpan, "probe")
	defer tr.end(root)
	seed, key := b.seeds[0], b.key(0)
	probeCell(tr, root, seed, b.cell, &acc, &k)
	acc.emit(l)

	p, progs, err := b.cell.generate(seed)
	if err != nil {
		k.expect(false, "probe: %v", err)
		return k
	}
	filter := sim.WithWarmFilter(workload.WarmFilter(p))
	path := filepath.Join(b.tmp, "probe.ckpt")
	defer checkpoint.Remove(path)

	var sys *sim.System
	var snapT, encT time.Duration
	var snaps, bytes int
	sys, err = sim.New(b.cell.config(), progs, filter, sim.WithCheckpoint(b.every(0), func(_ uint64, snap *sim.SysSnap) error {
		emptyPools() // as in the unit: Encode grows its own buffer
		id := tr.begin(root, "System.Snapshot")
		own := sys.Snapshot()
		snapT += tr.end(id)
		id = tr.begin(root, "checkpoint.Encode")
		data, err := checkpoint.Encode(key, own)
		encT += tr.end(id)
		snaps++
		bytes = len(data)
		if err != nil {
			return err
		}
		return checkpoint.Save(path, key, snap)
	}))
	if err == nil {
		_, err = sys.Run()
	}
	if err != nil || snaps == 0 {
		k.expect(false, "probe: instrumented checkpoint run: %d snapshots, err=%v", snaps, err)
		return k
	}
	l.add("sim.snapshot_ms", ms(snapT)/float64(snaps))
	l.add("checkpoint.encode_ms", ms(encT)/float64(snaps))
	l.add("checkpoint.bytes", float64(bytes))

	id := tr.begin(root, "checkpoint.Load")
	snap, _, err := checkpoint.Load(path, key)
	l.add("checkpoint.load_ms", ms(tr.end(id)))
	fresh, nerr := sim.New(b.cell.config(), progs, filter)
	if err != nil || nerr != nil {
		k.expect(false, "probe: load %v, rebuild %v", err, nerr)
		return k
	}
	id = tr.begin(root, "System.RestoreSnap")
	err = fresh.RestoreSnap(snap)
	l.add("sim.restore_ms", ms(tr.end(id)))
	res, rerr := fresh.Run()
	k.expect(err == nil && rerr == nil && res == b.plain[0], "probe: restored run differs from the plain one (restore %v, run %v)", err, rerr)

	id = tr.begin(root, "plain cell")
	_, err = runCell(tr, id, seed, b.cell)
	plainWall := tr.end(id)
	k.expect(err == nil, "probe: plain cell: %v", err)
	l.add("checkpoint.overhead_ratio", ratio(float64(b.lastWall), float64(plainWall)))
	return k
}

func (b *ckptBench) close() error { return os.RemoveAll(b.tmp) }
