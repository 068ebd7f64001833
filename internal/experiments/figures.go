package experiments

import (
	"fmt"

	"rowsim/internal/config"
	"rowsim/internal/sim"
	"rowsim/internal/stats"
	"rowsim/internal/workload"
)

// Fig1 reproduces Figure 1: normalized execution time of lazy
// execution relative to eager, per workload. Values above 1 mean
// eager wins (canneal side), below 1 mean lazy wins (pc side).
func Fig1(r *Runner) *stats.Table {
	t := &stats.Table{
		Title:   "Fig. 1 — Normalized execution time: lazy relative to eager (>1: eager wins)",
		Headers: []string{"workload", "eager-cycles", "lazy-cycles", "lazy/eager"},
	}
	var ratios []float64
	for w, res := range r.sweep(r.opt.Workloads, nil, nil, VarEager, VarLazy) {
		e, l := res[0].Cycles, res[1].Cycles
		ratio := Norm(l, e)
		ratios = append(ratios, ratio)
		t.AddRow(r.opt.Workloads[w], fmt.Sprint(e), fmt.Sprint(l), stats.F(ratio))
	}
	t.AddRow("geomean", "", "", stats.F(stats.GeoMean(ratios)))
	return t
}

// Fig4 reproduces Figure 4: how many independent instructions exist
// around an atomic — older not-yet-executed instructions when an
// eager atomic issues, and younger already-executing instructions
// when a lazy atomic issues.
func Fig4(r *Runner) *stats.Table {
	t := &stats.Table{
		Title:   "Fig. 4 — Independent instructions around atomics",
		Headers: []string{"workload", "older-unexecuted@eager", "younger-started@lazy"},
	}
	var olds, youngs []float64
	for w, res := range r.sweep(r.opt.Workloads, nil, nil, VarEager, VarLazy) {
		o, y := res[0].OlderUnexecAtEager, res[1].YoungerStartedAtLazy
		olds, youngs = append(olds, o), append(youngs, y)
		t.AddRow(r.opt.Workloads[w], stats.F1(o), stats.F1(y))
	}
	t.AddRow("mean", stats.F1(stats.ArithMean(olds)), stats.F1(stats.ArithMean(youngs)))
	return t
}

// eagerDetect is the eager policy with a contention detector attached:
// the detector only affects the statistics, not the schedule.
func eagerDetect(d config.Detection, name string) Variant {
	v := VarEager
	v.Name, v.Detection = "eager-detect-"+name, d
	return v
}

// Fig5 reproduces Figure 5: atomic intensity (atomics per 10
// kilo-instructions) and the fraction of atomics that face contention
// under eager execution. Contention is measured with the full RW+Dir
// detector (the figure's definition counts any concurrent use or
// request of the line, which narrower windows under-report).
func Fig5(r *Runner) *stats.Table {
	t := &stats.Table{
		Title:   "Fig. 5 — Atomic intensity and contention (eager execution)",
		Headers: []string{"workload", "atomics/10k", "%contended"},
	}
	for w, res := range r.sweep(r.opt.Workloads, nil, nil, eagerDetect(config.DetectRWDir, "RW+Dir")) {
		t.AddRow(r.opt.Workloads[w], stats.F1(res[0].AtomicsPer10K), stats.Pct(res[0].ContendedFrac))
	}
	return t
}

// Fig6 reproduces Figure 6: the atomic latency breakdown — dispatch
// to issue, issue to lock, lock to unlock — under eager and lazy.
func Fig6(r *Runner) *stats.Table {
	t := &stats.Table{
		Title:   "Fig. 6 — Atomic latency breakdown (cycles): eager vs lazy",
		Headers: []string{"workload", "E:disp->issue", "E:issue->lock", "E:lock->unlock", "L:disp->issue", "L:issue->lock", "L:lock->unlock"},
	}
	for w, res := range r.sweep(r.opt.Workloads, nil, nil, VarEager, VarLazy) {
		e, l := &res[0], &res[1]
		t.AddRow(r.opt.Workloads[w],
			stats.F1(e.DispatchToIssue), stats.F1(e.IssueToLock), stats.F1(e.LockToUnlock),
			stats.F1(l.DispatchToIssue), stats.F1(l.IssueToLock), stats.F1(l.LockToUnlock))
	}
	return t
}

// normTable runs every workload under eager and variants and tabulates
// each variant's cycles normalized to eager's: a row per workload, then
// the geomean row. headers label the variants' columns (nil: their
// names), and eagerCol puts an "eager" column of 1.000s before them.
func normTable(r *Runner, title string, eagerCol bool, variants []Variant, headers []string) *stats.Table {
	if headers == nil {
		for _, v := range variants {
			headers = append(headers, v.Name)
		}
	}
	t := &stats.Table{Title: title, Headers: []string{"workload"}}
	var ones []string // the eager column's cell, when there is one
	if eagerCol {
		t.Headers, ones = append(t.Headers, "eager"), []string{"1.000"}
	}
	t.Headers = append(t.Headers, headers...)
	norms := make([][]float64, len(variants))
	for w, res := range r.sweep(r.opt.Workloads, nil, nil, append([]Variant{VarEager}, variants...)...) {
		row := append([]string{r.opt.Workloads[w]}, ones...)
		for i := range variants {
			n := Norm(res[i+1].Cycles, res[0].Cycles)
			norms[i] = append(norms[i], n)
			row = append(row, stats.F(n))
		}
		t.AddRow(row...)
	}
	row := append([]string{"geomean"}, ones...)
	for _, ns := range norms {
		row = append(row, stats.F(stats.GeoMean(ns)))
	}
	t.AddRow(row...)
	return t
}

// Fig9Variants is the configuration set of Figure 9 (no forwarding).
var Fig9Variants = []Variant{VarLazy, VarEWUD, VarEWSat, VarRWUD, VarRWSat, VarDirUD, VarDirSat}

// Fig9 reproduces Figure 9: normalized execution time of the RoW
// variants (EW/RW/RW+Dir × UpDown/Saturate) against the eager and
// lazy baselines, forwarding disabled.
func Fig9(r *Runner) *stats.Table {
	return normTable(r, "Fig. 9 — Normalized execution time of RoW variants (no forwarding), relative to eager", true, Fig9Variants, nil)
}

// Fig10Thresholds is the latency-threshold sweep of Figure 10.
// -2 encodes "infinite" (Dir detection disabled, pure RW).
var Fig10Thresholds = []int{0, 100, 400, 1000, 2000, -2}

// Fig10 reproduces Figure 10: sensitivity of RoW (RW+Dir, UpDown) to
// the fill-latency threshold of the directory detector.
func Fig10(r *Runner) *stats.Table {
	var vs []Variant
	var headers []string
	for _, th := range Fig10Thresholds {
		v := VarDirUD
		v.Name, v.Threshold = fmt.Sprintf("RW+Dir_U/D(th=%d)", th), th
		h := fmt.Sprint(th)
		if th == -2 {
			h = "inf"
		}
		vs, headers = append(vs, v), append(headers, h)
	}
	return normTable(r, "Fig. 10 — RW+Dir_U/D threshold sweep, normalized to eager", false, vs, headers)
}

// Fig11 reproduces Figure 11: average L1D miss latency under eager,
// lazy and RoW with either predictor (RW+Dir).
func Fig11(r *Runner) *stats.Table {
	t := &stats.Table{
		Title:   "Fig. 11 — L1D miss latency (cycles)",
		Headers: []string{"workload", "eager", "lazy", "RoW_U/D", "RoW_Sat"},
	}
	for w, res := range r.sweep(r.opt.Workloads, nil, nil, VarEager, VarLazy, VarDirUD, VarDirSat) {
		t.AddRow(r.opt.Workloads[w], stats.F1(res[0].MissLatency), stats.F1(res[1].MissLatency),
			stats.F1(res[2].MissLatency), stats.F1(res[3].MissLatency))
	}
	return t
}

// Fig12 reproduces Figure 12: contention-prediction accuracy of the
// UpDown and Saturate predictors (RW+Dir detection).
func Fig12(r *Runner) *stats.Table {
	t := &stats.Table{
		Title:   "Fig. 12 — Contention predictor accuracy",
		Headers: []string{"workload", "U/D", "Sat"},
	}
	var ud, sat []float64
	for w, res := range r.sweep(r.opt.Workloads, nil, nil, VarDirUD, VarDirSat) {
		u, s := res[0].PredAccuracy, res[1].PredAccuracy
		ud, sat = append(ud, u), append(sat, s)
		t.AddRow(r.opt.Workloads[w], stats.Pct(u), stats.Pct(s))
	}
	t.AddRow("mean", stats.Pct(stats.ArithMean(ud)), stats.Pct(stats.ArithMean(sat)))
	return t
}

// Fig13Variants is the forwarding study of Figure 13.
var Fig13Variants = []Variant{VarLazy, VarEagerFwd, VarDirUD, VarDirSat, VarDirUDFwd, VarDirSatFwd}

// Fig13 reproduces Figure 13: forwarding from stores to atomics, with
// the atomic-locality override that flips predicted-contended atomics
// back to eager when a matching store is in the SB.
func Fig13(r *Runner) *stats.Table {
	return normTable(r, "Fig. 13 — Forwarding to atomics, normalized to eager (no fwd)", true, Fig13Variants, nil)
}

// Summary reproduces the headline claims of Section VI: RoW with
// forwarding against the eager and lazy baselines, over the
// atomic-intensive workloads and over all applications. The paper's
// headline configuration is RW+Dir_U/D+Fwd; the Saturate predictor is
// reported as well because it is the strongest variant in this
// reproduction.
func Summary(r *Runner) *stats.Table {
	t := &stats.Table{
		Title:   "Section VI summary — RoW with forwarding vs baselines",
		Headers: []string{"set", "variant", "vs-eager", "vs-lazy", "best-case"},
	}
	all := append(append([]string{}, r.opt.Workloads...), workload.Fillers...)
	rows := r.sweep(all, nil, nil, VarEager, VarLazy, VarDirUDFwd, VarDirSatFwd)
	for i, v := range []Variant{VarDirUDFwd, VarDirSatFwd} {
		for _, set := range []struct {
			name string
			rows [][]sim.Result
		}{{"atomic-intensive", rows[:len(r.opt.Workloads)]}, {"all applications", rows}} {
			var re, rl []float64
			best := 1.0
			for _, res := range set.rows {
				ne := Norm(res[2+i].Cycles, res[0].Cycles)
				re, rl = append(re, ne), append(rl, Norm(res[2+i].Cycles, res[1].Cycles))
				best = min(best, ne)
			}
			t.AddRow(set.name, v.Name, stats.F(stats.GeoMean(re)), stats.F(stats.GeoMean(rl)), stats.F(best))
		}
	}
	return t
}

// Table1 prints the active Table I system parameters.
func Table1() *stats.Table {
	cfg := config.Default()
	t := &stats.Table{
		Title:   "Table I — System parameters",
		Headers: []string{"parameter", "value"},
	}
	t.AddRow("Cores", fmt.Sprint(cfg.NumCores))
	t.AddRow("Fetch / Issue / Commit width", fmt.Sprintf("%d / %d / %d", cfg.Core.FetchWidth, cfg.Core.IssueWidth, cfg.Core.CommitWidth))
	t.AddRow("ROB / LQ / SB", fmt.Sprintf("%d / %d / %d entries", cfg.Core.ROBSize, cfg.Core.LQSize, cfg.Core.SBSize))
	t.AddRow("Atomic queue", fmt.Sprintf("%d entries", cfg.Core.AQSize))
	t.AddRow("Branch predictor", "gshare/bimodal hybrid (TAGE-SC-L stand-in)")
	t.AddRow("Mem. dep. predictor", "StoreSet")
	t.AddRow("Private L1I", fmt.Sprintf("%dKB, %d ways, next-line prefetcher", cfg.Mem.L1I.SizeBytes>>10, cfg.Mem.L1I.Ways))
	t.AddRow("Private L1D", fmt.Sprintf("%dKB, %d ways, %d hit cycles, IP-stride prefetcher", cfg.Mem.L1D.SizeBytes>>10, cfg.Mem.L1D.Ways, cfg.Mem.L1D.HitCycles))
	t.AddRow("Private L2", fmt.Sprintf("%dMB, %d ways, %d hit cycles", cfg.Mem.L2.SizeBytes>>20, cfg.Mem.L2.Ways, cfg.Mem.L2.HitCycles))
	t.AddRow("Shared L3", fmt.Sprintf("%dMB per bank x %d banks, %d ways, %d hit cycles", cfg.Mem.L3.SizeBytes>>20, cfg.Mem.L3Banks, cfg.Mem.L3.Ways, cfg.Mem.L3.HitCycles))
	t.AddRow("Memory access time", fmt.Sprintf("%d cycles", cfg.Mem.DRAMCycles))
	t.AddRow("RoW detection / predictor", fmt.Sprintf("%s / %s", cfg.RoW.Detection, cfg.RoW.Predictor))
	t.AddRow("RoW predictor table", fmt.Sprintf("%d x %d-bit counters", cfg.RoW.PredictorEntries, cfg.RoW.PredictorBits))
	t.AddRow("RoW latency threshold", fmt.Sprintf("%d cycles (%d-bit timestamps)", cfg.RoW.LatencyThreshold, cfg.RoW.TimestampBits))
	return t
}

// HardwareCost itemizes RoW's storage budget the way Section IV-F
// does, confirming the 64-byte claim for the active configuration.
func HardwareCost() *stats.Table {
	cfg := config.Default()
	t := &stats.Table{
		Title:   "Section IV-F — RoW hardware cost",
		Headers: []string{"structure", "geometry", "bits"},
	}
	predBits := cfg.RoW.PredictorEntries * cfg.RoW.PredictorBits
	t.AddRow("contention predictor", fmt.Sprintf("%d x %d-bit saturating counters", cfg.RoW.PredictorEntries, cfg.RoW.PredictorBits), fmt.Sprint(predBits))
	perEntry := 1 + 1 + cfg.RoW.TimestampBits
	aqBits := cfg.Core.AQSize * perEntry
	t.AddRow("AQ augmentation", fmt.Sprintf("%d entries x (contended + only-calc-addr + %d-bit timestamp)", cfg.Core.AQSize, cfg.RoW.TimestampBits), fmt.Sprint(aqBits))
	t.AddRow("combinational", fmt.Sprintf("%d-bit unsigned subtractor + comparator", cfg.RoW.TimestampBits), "-")
	t.AddRow("total storage", fmt.Sprintf("%d bytes", (predBits+aqBits)/8), fmt.Sprint(predBits+aqBits))
	return t
}
