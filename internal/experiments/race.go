package experiments

import (
	"rowsim/internal/config"
	"rowsim/internal/stats"
)

// Fig8Race quantifies the race of Figure 8: contended invalidations
// often reach a core after its atomic has already unlocked, so each
// successively wider detection window (EW -> RW -> RW+Dir) observes a
// larger fraction of the truly contended atomics. The policy is held
// at eager for every run; only the detector changes, so cycles stay
// comparable.
func Fig8Race(r *Runner) *stats.Table {
	t := &stats.Table{
		Title:   "Fig. 8 evidence — fraction of atomics detected contended, by detection window (eager execution)",
		Headers: []string{"workload", "EW", "RW", "RW+Dir"},
	}
	var ews, rws, dirs []float64
	for w, res := range r.sweep(r.opt.Workloads, nil, nil, eagerDetect(config.DetectEW, "EW"),
		eagerDetect(config.DetectRW, "RW"), eagerDetect(config.DetectRWDir, "RW+Dir")) {
		e, rw, d := res[0].ContendedFrac, res[1].ContendedFrac, res[2].ContendedFrac
		ews, rws, dirs = append(ews, e), append(rws, rw), append(dirs, d)
		t.AddRow(r.opt.Workloads[w], stats.Pct(e), stats.Pct(rw), stats.Pct(d))
	}
	t.AddRow("mean", stats.Pct(stats.ArithMean(ews)), stats.Pct(stats.ArithMean(rws)), stats.Pct(stats.ArithMean(dirs)))
	return t
}

// LockTails reports the lock-window tail (p99 cycles) under eager,
// lazy and RoW: the paper's core argument is that eager execution
// grows exactly this tail on contended lines.
func LockTails(r *Runner) *stats.Table {
	t := &stats.Table{
		Title:   "Lock-window tail — p99 lock-hold cycles",
		Headers: []string{"workload", "eager", "lazy", "RoW(Sat)"},
	}
	for w, res := range r.sweep(r.opt.Workloads, nil, nil, VarEager, VarLazy, VarDirSat) {
		t.AddRow(r.opt.Workloads[w], stats.F1(res[0].LockHoldP99), stats.F1(res[1].LockHoldP99), stats.F1(res[2].LockHoldP99))
	}
	return t
}
