// Command rowtrace inspects the synthetic instruction traces the
// workload generators produce: dump instructions, summarize the
// instruction mix, or break accesses down by address region.
//
//	rowtrace -workload pc -n 40          # dump the first 40 instructions
//	rowtrace -workload pc -summary       # mix + intensity + regions
package main

import (
	"flag"
	"fmt"
	"os"

	"rowsim/internal/stats"
	"rowsim/internal/trace"
	"rowsim/internal/workload"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "pc", "workload name")
		core    = flag.Int("core", 0, "core whose trace to inspect")
		cores   = flag.Int("cores", 32, "number of cores to generate")
		n       = flag.Int("n", 0, "dump the first N instructions")
		instrs  = flag.Int("instrs", 0, "trace length (0 = workload default)")
		seed    = flag.Uint64("seed", 1, "generation seed")
		summary = flag.Bool("summary", false, "print the composition summary")
		save    = flag.String("save", "", "write all cores' traces to this file (replay with rowsim -tracefile)")
	)
	flag.Parse()

	p, err := workload.Get(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	progs := workload.Generate(p, *cores, *instrs, *seed)
	if *save != "" {
		f, err := os.Create(*save)
		if err == nil {
			err = trace.WritePrograms(f, progs)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "wrote %d cores to %s\n", len(progs), *save)
	}
	if *core < 0 || *core >= len(progs) {
		fmt.Fprintf(os.Stderr, "core %d out of range [0,%d)\n", *core, len(progs))
		return 2
	}
	prog := progs[*core]

	if *n > 0 {
		limit := *n
		if limit > len(prog) {
			limit = len(prog)
		}
		for i := 0; i < limit; i++ {
			in := &prog[i]
			extra := ""
			if in.IsMem() {
				extra = "  [" + workload.Region(in.Addr) + "]"
			}
			fmt.Printf("%6d  %s%s\n", i, in, extra)
		}
		if !*summary {
			return 0
		}
		fmt.Println()
	}

	s := prog.Summarize()
	t := &stats.Table{
		Title:   fmt.Sprintf("%s (core %d): %s", p.Name, *core, p.Descr),
		Headers: []string{"metric", "value"},
	}
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
	fmt.Println(t)
	return 0
}

func pct(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b) * 100
}
