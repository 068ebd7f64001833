// Command rowsim runs one workload on the simulated multicore under a
// chosen atomic-execution policy and prints the run's metrics.
//
// Examples:
//
//	rowsim -workload pc -policy eager
//	rowsim -workload canneal -policy row -detect rwdir -pred ud
//	rowsim -workload sps -policy lazy -cores 16 -instrs 50000
//	rowsim -workload sps -cores 32 -instrs 24000 -cpuprofile cpu.out
package main

import (
	"flag"
	"fmt"
	"os"

	"rowsim/internal/config"
	"rowsim/internal/profiling"
	"rowsim/internal/sim"
	"rowsim/internal/stats"
	"rowsim/internal/trace"
	"rowsim/internal/workload"
)

func main() {
	os.Exit(run())
}

// run is main with an exit code, so that the deferred profile stop runs
// on every path.
func run() (code int) {
	var (
		name    = flag.String("workload", "pc", "workload name (see -list)")
		policy  = flag.String("policy", "row", "atomic policy: eager, lazy, row, far")
		detect  = flag.String("detect", "rwdir", "contention detection: ew, rw, rwdir")
		pred    = flag.String("pred", "ud", "predictor: ud, sat, 2up1down")
		cores   = flag.Int("cores", 32, "number of cores")
		instrs  = flag.Int("instrs", 0, "instructions per core (0 = workload default)")
		seed    = flag.Uint64("seed", 1, "trace generation seed")
		schedF  = flag.String("sched", "event", "simulation scheduler: event (skip idle cycles) or cycle (tick every cycle); results are identical")
		fwd     = flag.Bool("fwd", true, "enable store-to-atomic forwarding")
		list    = flag.Bool("list", false, "list workloads and exit")
		verbose = flag.Bool("v", false, "print extended statistics")
		perCore = flag.Bool("percore", false, "print a per-core breakdown table")
		traceIn = flag.String("tracefile", "", "replay a trace file (from rowtrace -save) instead of generating")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		traceFile  = flag.String("trace", "", "write a runtime execution trace to this file")
	)
	flag.Parse()

	sched, err := sim.ParseScheduler(*schedF)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	if *list {
		for _, n := range workload.Names() {
			p := workload.MustGet(n)
			fmt.Printf("%-14s %5.1f atomics/10k  %s\n", n, p.AtomicsPer10K, p.Descr)
		}
		return 0
	}

	stopProf, err := profiling.Start(*cpuprofile, *memprofile, *traceFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			if code == 0 {
				code = 1
			}
		}
	}()

	cfg := config.Default()
	cfg.NumCores = *cores
	cfg.ForwardAtomics = *fwd
	switch *policy {
	case "eager":
		cfg.Policy = config.PolicyEager
	case "lazy":
		cfg.Policy = config.PolicyLazy
	case "row":
		cfg.Policy = config.PolicyRoW
	case "far":
		cfg.Policy = config.PolicyFar
	default:
		fmt.Fprintf(os.Stderr, "unknown policy %q\n", *policy)
		return 2
	}
	switch *detect {
	case "ew":
		cfg.RoW.Detection = config.DetectEW
	case "rw":
		cfg.RoW.Detection = config.DetectRW
	case "rwdir":
		cfg.RoW.Detection = config.DetectRWDir
	default:
		fmt.Fprintf(os.Stderr, "unknown detection %q\n", *detect)
		return 2
	}
	switch *pred {
	case "ud":
		cfg.RoW.Predictor = config.PredUpDown
	case "sat":
		cfg.RoW.Predictor = config.PredSaturate
	case "2up1down":
		cfg.RoW.Predictor = config.PredTwoUpOneDown
	default:
		fmt.Fprintf(os.Stderr, "unknown predictor %q\n", *pred)
		return 2
	}

	// The early address-calculation pass is a RoW mechanism (it opens
	// the ready window); the plain baselines and the EW variant do
	// without it, as in the paper.
	cfg.EarlyAddrCalc = cfg.Policy == config.PolicyRoW && cfg.RoW.Detection != config.DetectEW

	p, err := workload.Get(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	var progs []trace.Program
	if *traceIn != "" {
		f, err := os.Open(*traceIn)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		progs, err = trace.ReadPrograms(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if len(progs) > *cores {
			cfg.NumCores = len(progs)
		}
	} else {
		progs = workload.Generate(p, *cores, *instrs, *seed)
	}
	system, err := sim.New(cfg, progs, sim.WithWarmFilter(workload.WarmFilter(p)), sim.WithScheduler(sched))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	r, err := system.Run()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	fmt.Printf("workload        %s (%s)\n", p.Name, p.Descr)
	fmt.Printf("policy          %s  detect=%s pred=%s fwd=%v\n", cfg.Policy, cfg.RoW.Detection, cfg.RoW.Predictor, *fwd)
	fmt.Printf("cycles          %d\n", r.Cycles)
	fmt.Printf("committed       %d (IPC %.2f)\n", r.Committed, r.IPC)
	fmt.Printf("atomics         %d (%.1f per 10k, %.1f%% contended)\n", r.Atomics, r.AtomicsPer10K, r.ContendedFrac*100)
	fmt.Printf("issued          eager=%d lazy=%d forwarded=%d\n", r.EagerIssued, r.LazyIssued, r.ForwardedAtomics)
	fmt.Printf("atomic latency  dispatch->issue %.0f, issue->lock %.0f, lock->unlock %.0f\n",
		r.DispatchToIssue, r.IssueToLock, r.LockToUnlock)
	fmt.Printf("L1D miss lat    %.0f cycles\n", r.MissLatency)
	if cfg.Policy == config.PolicyRoW {
		fmt.Printf("pred accuracy   %.1f%%\n", r.PredAccuracy*100)
	}
	if *perCore {
		t := &stats.Table{
			Title:   "Per-core breakdown",
			Headers: []string{"core", "finished@", "committed", "atomics", "contended", "squashes", "L1Imiss", "missLat"},
		}
		for i, c := range system.Cores() {
			pc := system.Caches()[i]
			t.AddRow(
				fmt.Sprint(i),
				fmt.Sprint(c.FinishedAt()),
				fmt.Sprint(c.Stats.Committed),
				fmt.Sprint(c.Stats.Atomics),
				fmt.Sprint(c.Stats.ContendedAtomics),
				fmt.Sprint(c.Stats.LQSquashes),
				fmt.Sprint(c.L1IMisses()),
				stats.F1(pc.Stats.MissLatency.Value()),
			)
		}
		fmt.Println(t)
	}
	if *verbose {
		// Scheduler bookkeeping stays out of the default output so the
		// CI mode-equivalence diff compares runs across -sched values.
		skip := 0.0
		if r.Cycles > 0 {
			skip = 1 - float64(r.CyclesVisited)/float64(r.Cycles)
		}
		fmt.Printf("sched           %s (visited %d of %d cycles, %.1f%% skipped)\n", sched, r.CyclesVisited, r.Cycles, skip*100)
		fmt.Printf("older-unexec@eager   %.1f\n", r.OlderUnexecAtEager)
		fmt.Printf("younger-started@lazy %.1f\n", r.YoungerStartedAtLazy)
		fmt.Printf("load forwards   %d\n", r.LoadForwards)
		fmt.Printf("LQ squashes     %d\n", r.LQSquashes)
		fmt.Printf("SS violations   %d\n", r.SSViolations)
		fmt.Printf("forced releases %d\n", r.ForcedReleases)
		fmt.Printf("branches        %d (%.2f%% mispredicted)\n", r.Branches, pct(r.Mispredicts, r.Branches))
		fmt.Printf("ext stalls      %d\n", r.ExtStalls)
		fmt.Printf("net messages    %d\n", r.NetworkMessages)
	}
	return 0
}

func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b) * 100
}
