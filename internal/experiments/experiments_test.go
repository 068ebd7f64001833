package experiments

import (
	"context"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"rowsim/internal/config"
	"rowsim/internal/lifecycle"
	"rowsim/internal/sim"
)

// tinyRunner keeps experiment tests fast: few cores, short traces,
// a contended and a non-contended workload.
func tinyRunner() *Runner {
	return NewRunner(Options{
		Cores:     4,
		Instrs:    2500,
		Seed:      1,
		Workloads: []string{"canneal", "sps"},
	})
}

func TestVariantConfigs(t *testing.T) {
	if VarEager.Config(4).Policy != config.PolicyEager {
		t.Fatal("eager variant policy wrong")
	}
	cfg := VarDirSatFwd.Config(4)
	if !cfg.ForwardAtomics || cfg.RoW.Predictor != config.PredSaturate || cfg.RoW.Detection != config.DetectRWDir {
		t.Fatal("RW+Dir_Sat+Fwd variant mis-assembled")
	}
	v := VarDirUD
	v.Threshold = -2
	if got := v.Config(4).RoW.LatencyThreshold; got >= 0 {
		t.Fatalf("infinite threshold encoded as %d", got)
	}
	v.Threshold = 1000
	if got := v.Config(4).RoW.LatencyThreshold; got != 1000 {
		t.Fatalf("explicit threshold = %d", got)
	}
	v.PredEntries = 4
	if got := v.Config(4).RoW.PredictorEntries; got != 4 {
		t.Fatalf("entries override = %d", got)
	}
}

func TestRunnerMemoizes(t *testing.T) {
	r := tinyRunner()
	runs := 0
	r.Progress = func(string) { runs++ }
	r.MustRun("sps", VarEager)
	r.MustRun("sps", VarEager)
	if runs != 1 {
		t.Fatalf("memoization broken: %d runs", runs)
	}
	r.MustRun("sps", VarLazy)
	if runs != 2 {
		t.Fatalf("distinct variant not run: %d", runs)
	}

	// Two goroutines wanting one cell at once share one simulation.
	r = tinyRunner()
	var ran atomic.Int32
	r.Progress = func(string) { ran.Add(1) }
	var wg sync.WaitGroup
	wg.Add(2)
	for i := 0; i < 2; i++ {
		go func() {
			defer wg.Done()
			if _, err := r.Run("canneal", VarEager); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if ran.Load() != 1 {
		t.Fatalf("one cell wanted by two goroutines ran %d times", ran.Load())
	}
}

func TestFig1ShapesHold(t *testing.T) {
	r := tinyRunner()
	tab := Fig1(r)
	if len(tab.Rows) != 3 { // 2 workloads + geomean
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	out := tab.String()
	if !strings.Contains(out, "canneal") || !strings.Contains(out, "sps") {
		t.Fatalf("missing rows:\n%s", out)
	}
	// The headline shape at any scale: eager beats lazy on canneal.
	e := r.MustRun("canneal", VarEager)
	l := r.MustRun("canneal", VarLazy)
	if l.Cycles <= e.Cycles {
		t.Fatalf("canneal: lazy (%d) not slower than eager (%d)", l.Cycles, e.Cycles)
	}
}

func TestFig5IntensityOrdering(t *testing.T) {
	r := tinyRunner()
	sps := r.MustRun("sps", VarEager)
	can := r.MustRun("canneal", VarEager)
	if sps.AtomicsPer10K <= can.AtomicsPer10K {
		t.Fatalf("sps intensity (%.1f) not above canneal (%.1f)", sps.AtomicsPer10K, can.AtomicsPer10K)
	}
	if sps.ContendedFrac <= can.ContendedFrac {
		t.Fatalf("sps contention (%.2f) not above canneal (%.2f)", sps.ContendedFrac, can.ContendedFrac)
	}
	if tab := Fig5(r); len(tab.Rows) != 2 {
		t.Fatalf("fig5 rows = %d", len(tab.Rows))
	}
}

func TestFig6Breakdown(t *testing.T) {
	r := tinyRunner()
	tab := Fig6(r)
	if len(tab.Headers) != 7 {
		t.Fatalf("headers = %v", tab.Headers)
	}
	// Lazy lock windows are minimal by construction.
	l := r.MustRun("canneal", VarLazy)
	if l.LockToUnlock > 20 {
		t.Fatalf("lazy lock->unlock = %.0f, want small", l.LockToUnlock)
	}
}

func TestFig2FenceShapes(t *testing.T) {
	r := NewRunner(Options{Cores: 1, Instrs: 2000, Seed: 1, Workloads: []string{"sps"}})
	tab := Fig2(r)
	if len(tab.Rows) != 12 {
		t.Fatalf("fig2 rows = %d, want 12", len(tab.Rows))
	}
	// Parse the table back for the FAA rows.
	get := func(name string) (unfenced, fenced float64) {
		for _, row := range tab.Rows {
			if row[0] == name {
				var err1, err2 error
				unfenced, err1 = strconv.ParseFloat(row[1], 64)
				fenced, err2 = strconv.ParseFloat(row[2], 64)
				if err1 != nil || err2 != nil {
					t.Fatalf("bad row %v", row)
				}
				return unfenced, fenced
			}
		}
		t.Fatalf("row %q missing", name)
		return 0, 0
	}
	plainU, _ := get("FAA")
	lockU, lockF := get("lock FAA")
	mfenceU, _ := get("FAA +mfence")
	// Unfenced core: lock prefix nearly free; mfences ruinous.
	if lockU > plainU*1.4 {
		t.Fatalf("unfenced core: lock FAA %.1f vs FAA %.1f (should be close)", lockU, plainU)
	}
	if mfenceU < plainU*2 {
		t.Fatalf("unfenced core: mfence cost invisible (%.1f vs %.1f)", mfenceU, plainU)
	}
	// Fenced core: the lock prefix alone behaves like a fence.
	if lockF < lockU*1.5 {
		t.Fatalf("fenced core not slower on lock FAA: %.1f vs %.1f", lockF, lockU)
	}
}

func TestSummaryTable(t *testing.T) {
	r := tinyRunner()
	tab := Summary(r)
	if len(tab.Rows) != 4 {
		t.Fatalf("summary rows = %d, want 4", len(tab.Rows))
	}
}

func TestAblationTables(t *testing.T) {
	r := NewRunner(Options{Cores: 4, Instrs: 2000, Seed: 1, Workloads: []string{"sps"}})
	if tab := AblationEntries(r); len(tab.Rows) != 2 {
		t.Fatalf("entries ablation rows = %d", len(tab.Rows))
	}
	if tab := AblationUpdate(r); len(tab.Rows) != 2 {
		t.Fatalf("update ablation rows = %d", len(tab.Rows))
	}
}

func TestTable1(t *testing.T) {
	out := Table1().String()
	for _, want := range []string{"512 / 192 / 128", "16 entries", "160 cycles", "StoreSet"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table I missing %q:\n%s", want, out)
		}
	}
}

func TestFig8DetectionWidens(t *testing.T) {
	r := NewRunner(Options{Cores: 8, Instrs: 3000, Seed: 1, Workloads: []string{"sps"}})
	tab := Fig8Race(r)
	if len(tab.Rows) != 2 { // sps + mean
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Each wider window detects at least as much contention.
	parse := func(s string) float64 {
		v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
		if err != nil {
			t.Fatalf("bad cell %q", s)
		}
		return v
	}
	row := tab.Rows[0]
	ew, rw, dir := parse(row[1]), parse(row[2]), parse(row[3])
	if ew > rw || rw > dir {
		t.Fatalf("detection coverage not widening: EW=%.1f RW=%.1f Dir=%.1f", ew, rw, dir)
	}
	if dir == 0 {
		t.Fatal("RW+Dir detected nothing on sps")
	}
}

func TestLockTailsTable(t *testing.T) {
	r := NewRunner(Options{Cores: 4, Instrs: 2000, Seed: 1, Workloads: []string{"sps"}})
	if tab := LockTails(r); len(tab.Rows) != 1 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestAblationAQ(t *testing.T) {
	r := NewRunner(Options{Cores: 4, Instrs: 2000, Seed: 1, Workloads: []string{"sps"}})
	if tab := AblationAQSize(r); len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestLockStudyTable(t *testing.T) {
	r := NewRunner(Options{Cores: 4, Instrs: 2000, Seed: 1})
	tab := LockStudy(r)
	if len(tab.Rows) != 3 { // tas, ticket, barrier
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestScalingTable(t *testing.T) {
	r := NewRunner(Options{Cores: 4, Instrs: 1500, Seed: 1})
	tab := Scaling(r, []string{"sps"})
	if len(tab.Rows) != 3 { // 3 core counts
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestStabilityTable(t *testing.T) {
	r := NewRunner(Options{Cores: 4, Instrs: 1500, Seed: 1})
	tab := Stability(r, []uint64{1, 2}, []string{"sps"})
	if len(tab.Rows) != 1 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if !strings.Contains(tab.Rows[0][1], "[") {
		t.Fatalf("no spread reported: %v", tab.Rows[0])
	}
}

// TestScalingStabilityUseTheRunner: Scaling and Stability run their
// cells on the runner they are given, so they stop when its context
// does and simulate under its scheduler.
func TestScalingStabilityUseTheRunner(t *testing.T) {
	opt := Options{Cores: 4, Instrs: 1500, Seed: 1}
	for _, fig := range []struct {
		name  string
		run   func(*Runner)
		cells []cell
	}{
		{"Scaling", func(r *Runner) { Scaling(r, []string{"sps"}) },
			grid([]string{"sps"}, []int{8, 16, 32}, []uint64{1}, VarEager, VarLazy, VarDirSat, VarDirSatFwd)},
		{"Stability", func(r *Runner) { Stability(r, []uint64{1, 2}, []string{"sps"}) },
			grid([]string{"sps"}, []int{4}, []uint64{1, 2}, VarEager, VarLazy, VarDirSat)},
	} {
		r := NewRunner(opt)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		r.SetContext(ctx)
		r.Supervise(lifecycle.New(lifecycle.Config{}))
		err := func() (err error) {
			defer func() { err, _ = recover().(error) }()
			fig.run(r)
			return nil
		}()
		if lifecycle.Classify(err) != lifecycle.ClassCanceled {
			t.Errorf("%s on a canceled runner: %v, want a canceled error", fig.name, err)
		}

		cycle := opt
		cycle.Sched = sim.SchedCycle
		r = NewRunner(cycle)
		r.SetJobs(2)
		var ran atomic.Int32
		r.Progress = func(string) { ran.Add(1) }
		fig.run(r)
		for _, c := range fig.cells {
			if res := r.must(c); res.CyclesVisited != res.Cycles {
				t.Errorf("%s: %s under SchedCycle visited %d of %d cycles", fig.name, c.key(), res.CyclesVisited, res.Cycles)
			}
		}
		if int(ran.Load()) != len(fig.cells) {
			t.Errorf("%s ran %d cells, want %d", fig.name, ran.Load(), len(fig.cells))
		}
	}
}

func TestHardwareCost64Bytes(t *testing.T) {
	tab := HardwareCost()
	out := tab.String()
	if !strings.Contains(out, "64 bytes") {
		t.Fatalf("hardware cost table does not confirm 64 bytes:\n%s", out)
	}
}

func TestNorm(t *testing.T) {
	if Norm(50, 100) != 0.5 {
		t.Fatal("norm broken")
	}
	if Norm(50, 0) != 0 {
		t.Fatal("norm by zero")
	}
}
