// Command rowsim runs one workload on the simulated multicore under a
// chosen atomic-execution policy and prints the run's metrics, or
// inspects and saves the traces it would run.
//
// Examples:
//
//	rowsim -workload pc -policy eager
//	rowsim -workload canneal -policy row -detect rwdir -pred ud
//	rowsim -workload sps -policy lazy -cores 16 -instrs 50000
//	rowsim -workload sps -cores 32 -instrs 24000 -cpuprofile cpu.out
//	rowsim -workload pc -dump 40                  # the first 40 instructions of core 0
//	rowsim -workload cq -summary                  # instruction mix, intensity, regions
//	rowsim -workload sps -save sps.trace          # then: rowsim -tracefile sps.trace
package main

import (
	"fmt"
	"io"
	"os"

	"rowsim/internal/cli"
	"rowsim/internal/config"
	"rowsim/internal/core"
	"rowsim/internal/experiments"
	"rowsim/internal/sim"
	"rowsim/internal/stats"
	"rowsim/internal/trace"
	"rowsim/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := cli.NewFlagSet("rowsim", stderr)
	var (
		name    = fs.String("workload", "pc", "workload name (see -list)")
		policy  = fs.String("policy", "row", "atomic policy: eager, lazy, row")
		detect  = fs.String("detect", "rwdir", "contention detection: ew, rw, rwdir")
		pred    = fs.String("pred", "ud", "predictor: ud, sat, 2up1down")
		cores   = fs.Int("cores", 32, "number of cores")
		instrs  = fs.Int("instrs", 0, "instructions per core (0 = workload default)")
		seed    = fs.Uint64("seed", 1, "trace generation seed")
		fwd     = fs.Bool("fwd", true, "enable store-to-atomic forwarding")
		list    = fs.Bool("list", false, "list workloads and exit")
		verbose = fs.Bool("v", false, "print extended statistics")
		perCore = fs.Bool("percore", false, "print a per-core breakdown table")
		traceIn = fs.String("tracefile", "", "replay a trace file (from rowsim -save) instead of generating")
		dump    = fs.Int("dump", 0, "print the first N instructions of -core's trace and exit")
		core    = fs.Int("core", 0, "core whose trace -dump and -summary inspect")
		summary = fs.Bool("summary", false, "print -core's trace composition and exit")
		save    = fs.String("save", "", "write all cores' traces to this file and exit (replay with -tracefile)")
		prof    = cli.AddProfile(fs)
	)
	if code, ok := cli.Parse(fs, args); !ok {
		return code
	}

	if *list {
		for _, n := range workload.Names() {
			p := workload.MustGet(n)
			fmt.Fprintf(stdout, "%-14s %5.1f atomics/10k  %s\n", n, p.AtomicsPer10K, p.Descr)
		}
		return 0
	}

	if !prof.Start(stderr) {
		return 2
	}
	defer prof.Stop(&code, stderr)

	v := experiments.Variant{Forward: *fwd, Threshold: -1}
	for _, err := range []error{
		lookup(&v.Policy, "policy", *policy, map[string]config.AtomicPolicy{
			"eager": config.PolicyEager, "lazy": config.PolicyLazy, "row": config.PolicyRoW}),
		lookup(&v.Detection, "detection", *detect, map[string]config.Detection{
			"ew": config.DetectEW, "rw": config.DetectRW, "rwdir": config.DetectRWDir}),
		lookup(&v.Predictor, "predictor", *pred, map[string]config.PredictorKind{
			"ud": config.PredUpDown, "sat": config.PredSaturate, "2up1down": config.PredTwoUpOneDown}),
	} {
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}

	p, err := workload.Get(*name)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	var progs []trace.Program
	if *traceIn != "" {
		f, err := os.Open(*traceIn)
		if err == nil {
			progs, err = trace.ReadPrograms(f)
			f.Close()
		}
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	} else {
		progs = workload.Generate(p, *cores, *instrs, *seed)
	}
	if *save != "" {
		f, err := os.Create(*save)
		if err == nil {
			err = trace.WritePrograms(f, progs)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stderr, "wrote %d cores to %s\n", len(progs), *save)
	}
	if *dump > 0 || *summary {
		if *core < 0 || *core >= len(progs) {
			fmt.Fprintf(stderr, "core %d out of range [0,%d)\n", *core, len(progs))
			return 2
		}
		title := fmt.Sprintf("%s (core %d): %s", p.Name, *core, p.Descr)
		inspect(stdout, progs[*core], title, *dump, *summary)
	}
	if *save != "" || *dump > 0 || *summary {
		return 0
	}
	cfg := v.Config(max(*cores, len(progs)))
	system, err := sim.New(cfg, progs, sim.WithWarmFilter(workload.WarmFilter(p)))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	r, err := system.Run()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	fmt.Fprintf(stdout, "workload        %s (%s)\n", p.Name, p.Descr)
	fmt.Fprintf(stdout, "policy          %s  detect=%s pred=%s fwd=%v\n", cfg.Policy, cfg.RoW.Detection, cfg.RoW.Predictor, *fwd)
	fmt.Fprintf(stdout, "cycles          %d\n", r.Cycles)
	fmt.Fprintf(stdout, "committed       %d (IPC %.2f)\n", r.Committed, r.IPC)
	fmt.Fprintf(stdout, "atomics         %d (%.1f per 10k, %.1f%% contended)\n", r.Atomics, r.AtomicsPer10K, r.ContendedFrac*100)
	fmt.Fprintf(stdout, "issued          eager=%d lazy=%d forwarded=%d\n", r.EagerIssued, r.LazyIssued, r.ForwardedAtomics)
	fmt.Fprintf(stdout, "atomic latency  dispatch->issue %.0f, issue->lock %.0f, lock->unlock %.0f\n",
		r.DispatchToIssue, r.IssueToLock, r.LockToUnlock)
	fmt.Fprintf(stdout, "L1D miss lat    %.0f cycles\n", r.MissLatency)
	if cfg.Policy == config.PolicyRoW {
		fmt.Fprintf(stdout, "pred accuracy   %.1f%%\n", r.PredAccuracy*100)
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
		fmt.Fprintln(stdout, t)
	}
	if *verbose {
		skip := 0.0
		if r.Cycles > 0 {
			skip = 1 - float64(r.CyclesVisited)/float64(r.Cycles)
		}
		fmt.Fprintf(stdout, "visited         %d of %d cycles (%.1f%% skipped)\n", r.CyclesVisited, r.Cycles, skip*100)
		fmt.Fprintf(stdout, "older-unexec@eager   %.1f\n", r.OlderUnexecAtEager)
		fmt.Fprintf(stdout, "younger-started@lazy %.1f\n", r.YoungerStartedAtLazy)
		fmt.Fprintf(stdout, "load forwards   %d\n", r.LoadForwards)
		fmt.Fprintf(stdout, "LQ squashes     %d\n", r.LQSquashes)
		fmt.Fprintf(stdout, "SS violations   %d\n", r.SSViolations)
		fmt.Fprintf(stdout, "forced releases %d\n", r.ForcedReleases)
		fmt.Fprintf(stdout, "lock transitions%s\n", lockTransitions(system.Cores()))
		fmt.Fprintf(stdout, "branches        %d (%.2f%% mispredicted)\n", r.Branches, pct(r.Mispredicts, r.Branches))
		fmt.Fprintf(stdout, "ext stalls      %d\n", r.ExtStalls)
		fmt.Fprintf(stdout, "net messages    %d\n", r.NetworkMessages)
	}
	return 0
}

// lockTransitions lists the locking atomics' non-zero transition
// counts, summed over cores, as " name=count" in the table's order.
func lockTransitions(cores []*core.Core) (out string) {
	for t := range core.NumTransitions {
		var n uint64
		for _, c := range cores {
			n += c.Stats.Transitions[t]
		}
		if n != 0 {
			out += fmt.Sprintf(" %s=%d", t, n)
		}
	}
	return out
}

// lookup sets *dst to m[name], or returns an "unknown <what>" error.
func lookup[T any](dst *T, what, name string, m map[string]T) error {
	v, ok := m[name]
	if !ok {
		return fmt.Errorf("unknown %s %q", what, name)
	}
	*dst = v
	return nil
}

// inspect prints the first dump instructions of prog and, with
// summary, its instruction mix and where its accesses go.
func inspect(stdout io.Writer, prog trace.Program, title string, dump int, summary bool) {
	for i := range min(dump, len(prog)) {
		extra := ""
		if prog[i].IsMem() {
			extra = "  [" + workload.Region(prog[i].Addr) + "]"
		}
		fmt.Fprintf(stdout, "%6d  %s%s\n", i, &prog[i], extra)
	}
	if !summary {
		return
	}
	if dump > 0 {
		fmt.Fprintln(stdout)
	}
	s := prog.Summarize()
	t := &stats.Table{Title: title, Headers: []string{"metric", "value"}}
	t.AddRow("instructions", fmt.Sprint(s.Total))
	t.AddRow("loads", fmt.Sprintf("%d (%.1f%%)", s.Loads, pct(s.Loads, s.Total)))
	t.AddRow("stores", fmt.Sprintf("%d (%.1f%%)", s.Stores, pct(s.Stores, s.Total)))
	t.AddRow("branches", fmt.Sprintf("%d (%.1f%%)", s.Branches, pct(s.Branches, s.Total)))
	t.AddRow("atomics", fmt.Sprintf("%d (%.1f per 10k)", s.Atomics, prog.AtomicsPer10K()))
	t.AddRow("fences", fmt.Sprint(s.Fences))

	regions := map[string]int{}
	atomicRegions := map[string]int{}
	lines := map[uint64]bool{}
	for i := range prog {
		in := &prog[i]
		if !in.IsMem() {
			continue
		}
		regions[workload.Region(in.Addr)]++
		lines[in.Addr&^63] = true
		if in.Kind == trace.Atomic {
			atomicRegions[workload.Region(in.Addr)]++
		}
	}
	t.AddRow("distinct lines", fmt.Sprint(len(lines)))
	for _, r := range []string{"hot-atomic", "shared-metadata", "shared-payload", "private"} {
		t.AddRow("accesses to "+r, fmt.Sprint(regions[r]))
	}
	for _, r := range []string{"hot-atomic", "private"} {
		t.AddRow("atomics to "+r, fmt.Sprint(atomicRegions[r]))
	}
	fmt.Fprintln(stdout, t)
}

func pct[T int | uint64](a, b T) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b) * 100
}
