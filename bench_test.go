// Package rowsim_test holds the benchmark harness: one testing.B
// benchmark per paper table/figure, each running a scaled-down version
// of the corresponding experiment and reporting the figure's headline
// metric via b.ReportMetric, plus micro-benchmarks of the simulator's
// hot components. cmd/rowbench regenerates the full-scale tables.
package rowsim_test

import (
	"testing"

	"rowsim/internal/cache"
	"rowsim/internal/coherence"
	"rowsim/internal/config"
	"rowsim/internal/experiments"
	"rowsim/internal/interconnect"
	"rowsim/internal/predictor"
	"rowsim/internal/sim"
	"rowsim/internal/sram"
	"rowsim/internal/workload"
	"rowsim/internal/xrand"
)

// coherenceMsg is reused by the mesh benchmark.
var coherenceMsg = coherence.Msg{Type: coherence.MsgGetS, Src: 0, Dst: 39}

// benchOptions keeps every figure benchmark at laptop scale: a few
// cores, short traces, one contended and one non-contended workload.
func benchOptions() experiments.Options {
	return experiments.Options{
		Cores:     8,
		Instrs:    3000,
		Seed:      1,
		Workloads: []string{"canneal", "sps"},
	}
}

func BenchmarkFig1EagerVsLazy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchOptions())
		e := r.MustRun("sps", experiments.VarEager)
		l := r.MustRun("sps", experiments.VarLazy)
		b.ReportMetric(experiments.Norm(l.Cycles, e.Cycles), "lazy/eager(sps)")
		e = r.MustRun("canneal", experiments.VarEager)
		l = r.MustRun("canneal", experiments.VarLazy)
		b.ReportMetric(experiments.Norm(l.Cycles, e.Cycles), "lazy/eager(canneal)")
	}
}

func BenchmarkFig2Microbench(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(experiments.Options{Cores: 1, Instrs: 2000, Seed: 1, Workloads: []string{"sps"}})
		tab := experiments.Fig2(r)
		if len(tab.Rows) != 12 {
			b.Fatal("fig2 incomplete")
		}
	}
}

func BenchmarkFig4IndependentInstrs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchOptions())
		e := r.MustRun("sps", experiments.VarEager)
		l := r.MustRun("sps", experiments.VarLazy)
		b.ReportMetric(e.OlderUnexecAtEager, "older-unexec@eager")
		b.ReportMetric(l.YoungerStartedAtLazy, "younger-started@lazy")
	}
}

func BenchmarkFig5AtomicIntensity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchOptions())
		res := r.MustRun("sps", experiments.VarEager)
		b.ReportMetric(res.AtomicsPer10K, "atomics/10k")
		b.ReportMetric(res.ContendedFrac*100, "%contended")
	}
}

func BenchmarkFig6LatencyBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchOptions())
		e := r.MustRun("sps", experiments.VarEager)
		b.ReportMetric(e.DispatchToIssue, "disp->issue")
		b.ReportMetric(e.IssueToLock, "issue->lock")
		b.ReportMetric(e.LockToUnlock, "lock->unlock")
	}
}

func BenchmarkFig9RoWVariants(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchOptions())
		e := r.MustRun("sps", experiments.VarEager)
		best := 2.0
		for _, v := range []experiments.Variant{experiments.VarDirUD, experiments.VarDirSat} {
			n := experiments.Norm(r.MustRun("sps", v).Cycles, e.Cycles)
			if n < best {
				best = n
			}
		}
		b.ReportMetric(best, "bestRoW/eager(sps)")
	}
}

func BenchmarkFig10ThresholdSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchOptions())
		for _, th := range []int{0, 400, -2} {
			v := experiments.VarDirUD
			v.Threshold = th
			r.MustRun("sps", v)
		}
	}
}

func BenchmarkFig11MissLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchOptions())
		e := r.MustRun("sps", experiments.VarEager)
		l := r.MustRun("sps", experiments.VarLazy)
		b.ReportMetric(e.MissLatency, "missLat(eager)")
		b.ReportMetric(l.MissLatency, "missLat(lazy)")
	}
}

func BenchmarkFig12PredictorAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchOptions())
		res := r.MustRun("sps", experiments.VarDirUD)
		b.ReportMetric(res.PredAccuracy*100, "%accuracy(U/D)")
	}
}

func BenchmarkFig13Forwarding(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(experiments.Options{
			Cores: 8, Instrs: 3000, Seed: 1, Workloads: []string{"cq"},
		})
		e := r.MustRun("cq", experiments.VarEager)
		f := r.MustRun("cq", experiments.VarDirUDFwd)
		b.ReportMetric(experiments.Norm(f.Cycles, e.Cycles), "RoW+Fwd/eager(cq)")
		b.ReportMetric(float64(f.ForwardedAtomics), "forwarded")
	}
}

func BenchmarkSummaryHeadline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchOptions())
		e := r.MustRun("sps", experiments.VarEager)
		w := r.MustRun("sps", experiments.VarDirSatFwd)
		b.ReportMetric(experiments.Norm(w.Cycles, e.Cycles), "RoW/eager(sps)")
	}
}

// --- component micro-benchmarks ---------------------------------

func BenchmarkSimulatorThroughput(b *testing.B) {
	// Simulated instructions per second: the simulator's own speed.
	progs := workload.Generate(workload.MustGet("tpcc"), 8, 4000, 1)
	b.ResetTimer()
	var committed uint64
	for i := 0; i < b.N; i++ {
		cfg := config.Default()
		cfg.NumCores = 8
		cfg.MaxCycles = 100_000_000
		s, err := sim.New(cfg, progs)
		if err != nil {
			b.Fatal(err)
		}
		r, err := s.Run()
		if err != nil {
			b.Fatal(err)
		}
		committed += r.Committed
	}
	b.ReportMetric(float64(committed)/b.Elapsed().Seconds(), "instrs/s")
}

func BenchmarkSramLookup(b *testing.B) {
	a := sram.New(48<<10, 12, 64)
	rng := xrand.New(1)
	for i := 0; i < 512; i++ {
		a.Insert(uint64(rng.Intn(1<<20))&^63, 1)
	}
	addrs := make([]uint64, 1024)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1<<20)) &^ 63
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Lookup(addrs[i%len(addrs)], true)
	}
}

func BenchmarkMeshSendDeliver(b *testing.B) {
	// Throughput of the interconnect event queue.
	b.ReportAllocs()
	m := interconnect.NewMesh(40, 1, 2, 4)
	for i := 0; i < b.N; i++ {
		m.Tick(uint64(i))
		m.Send(coherenceMsg)
		if i%64 == 0 {
			for n := 0; n < 40; n++ {
				m.Drain(n)
			}
		}
	}
}

func BenchmarkBranchPredictor(b *testing.B) {
	p := predictor.NewBranch(12)
	rng := xrand.New(1)
	for i := 0; i < b.N; i++ {
		p.PredictAndTrain(uint64(0x400000+(i%256)*4), rng.Bool(0.9))
	}
}

func BenchmarkContentionPredictor(b *testing.B) {
	p := predictor.NewContention(config.Default())
	for i := 0; i < b.N; i++ {
		pc := uint64(0x400000 + (i%64)*4)
		pred := p.Predict(pc)
		p.Train(pc, pred, i%3 == 0)
	}
}

func BenchmarkTraceGeneration(b *testing.B) {
	p := workload.MustGet("tpcc")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		workload.Generate(p, 4, 4000, uint64(i))
	}
}

// nullNet drops every message (directory micro-benchmark harness).
type nullNet struct{}

func (nullNet) Send(coherence.Msg)              {}
func (nullNet) SendAfter(coherence.Msg, uint64) {}

func BenchmarkDirectoryTransaction(b *testing.B) {
	d := coherence.NewDirectory(32, 0, nullNet{}, 4<<20, 16, 64, 35, 160)
	for i := 0; i < b.N; i++ {
		line := uint64(i%4096) * 64
		d.Handle(coherence.Msg{Type: coherence.MsgGetX, Line: line, Src: 0, Dst: 32, Requestor: 0})
		d.Handle(coherence.Msg{Type: coherence.MsgUnblockX, Line: line, Src: 0, Dst: 32, Requestor: 0})
	}
}

func BenchmarkCacheHitPath(b *testing.B) {
	cfg := config.Default()
	pc := cacheUnderBench(cfg)
	pc.Warm(0x40000000, 3 /* StateM */)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc.Tick(uint64(i))
		pc.Access(benchClientTag, 0x40000000, false)
	}
}

const benchClientTag = 7

type benchClient struct{}

func (benchClient) MemResp(uint64, cache.RespInfo)    {}
func (benchClient) ExternalRequest(uint64, bool) bool { return false }
func (benchClient) LineInvalidated(uint64)            {}
func (benchClient) LineLocked(uint64) bool            { return false }
func (benchClient) ForceRelease(uint64) bool          { return false }

func cacheUnderBench(cfg *config.Config) *cache.Private {
	return cache.NewPrivate(0, cfg, nullNet{}, benchClient{}, func(uint64) int { return 32 })
}
