package sim_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rowsim/internal/config"
	"rowsim/internal/experiments"
	"rowsim/internal/serve"
	"rowsim/internal/sim"
	"rowsim/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/model.golden")

// modelCell is one simulation of the model contract: a workload's
// parameters on one configuration, built the way every front end
// builds a cell (Generate, then sim.New with the workload's warm
// filter).
type modelCell struct {
	name   string
	wp     workload.Params
	cfg    *config.Config
	instrs int
	seed   uint64 // the generator's
}

// modelCells restates the cells of rowperf's six workloads at its
// small sizes (cmd/rowperf/workloads.go) for one benchmark seed, then
// adds the paper's 32-core machine at 2,000 instructions a core: the
// contended pair pc and sps under eager and lazy, and rowperf's cold
// canneal and spin-lock cells.
func modelCells(t *testing.T, seed uint64) []modelCell {
	const cores32, cores8 = 4, 2
	const instrsFig, instrsContended, instrsCold, instrsSpin, instrsCkpt = 800, 1500, 1500, 1500, 3000
	var cells []modelCell
	add := func(name, wl string, v experiments.Variant, cores, instrs int, edit func(*config.Config)) {
		cfg := v.Config(cores)
		if edit != nil {
			edit(cfg)
		}
		cells = append(cells, modelCell{name + " " + wl + "/" + v.Name, workload.MustGet(wl), cfg, instrs, seed})
	}

	// figcells-8c: the distinct configurations the nine figures run
	// over canneal and sps.
	figVariants := []experiments.Variant{experiments.VarEager}
	figVariants = append(figVariants, experiments.Fig9Variants...)
	figVariants = append(figVariants, experiments.Fig13Variants[1:]...) // [0] is VarLazy, in Fig9Variants
	detect := experiments.VarEager
	detect.Name, detect.Detection = "eager-detect-RW+Dir", config.DetectRWDir
	figVariants = append(figVariants, detect)
	for _, th := range experiments.Fig10Thresholds {
		if v := experiments.VarDirUD; th != 400 { // 400 is VarDirUD's own threshold
			v.Name, v.Threshold = fmt.Sprintf("RW+Dir_U/D(th=%d)", th), th
			figVariants = append(figVariants, v)
		}
	}
	for _, wl := range []string{"canneal", "sps"} {
		for _, v := range figVariants {
			add("figcells-8c", wl, v, cores8, instrsFig, nil)
		}
	}

	add("contended-32c", "sps", experiments.VarEager, cores32, instrsContended, nil)
	add("contended-32c", "sps", experiments.VarDirUD, cores32, instrsContended, nil)
	add("coldmiss-32c", "canneal", experiments.VarDirUD, cores32, instrsCold, func(c *config.Config) { c.WarmCaches = false })
	add("lockspin-32c", "tas", experiments.VarDirUD, cores32, instrsSpin, nil)
	add("ckpt-8c", "sps", experiments.VarDirUD, cores8, instrsCkpt, func(c *config.Config) { c.Mem.L3.SizeBytes = 128 << 10 })

	// serve-sweeps: the four sweeps of its first round, two a tenant,
	// under the spec seeds serveBench.spec derives.
	for tenant := uint64(0); tenant < 2; tenant++ {
		for j := uint64(0); j < 2; j++ {
			spec := serve.SweepSpec{
				Workload: "sps", Param: "sharedfrac", Values: []float64{0.2, 0.5, 0.8},
				Cores: cores8, Instrs: instrsFig, Seed: seed*1_000_003 + tenant*1_009 + j + 1,
			}
			if err := spec.Normalize(); err != nil {
				t.Fatal(err)
			}
			for _, c := range spec.Cells() {
				wp, err := spec.WorkloadParams(c)
				if err != nil {
					t.Fatal(err)
				}
				cells = append(cells, modelCell{
					fmt.Sprintf("serve-sweeps spec-seed=%d %s", spec.Seed, c.Key), wp, spec.Config(c), spec.Instrs, spec.Seed,
				})
			}
		}
	}

	for _, wl := range []string{"pc", "sps"} {
		for _, v := range []experiments.Variant{experiments.VarEager, experiments.VarLazy} {
			add("cores=32", wl, v, 32, 2000, nil)
		}
	}
	add("cores=32 coldmiss", "canneal", experiments.VarDirUD, 32, 2000, func(c *config.Config) { c.WarmCaches = false })
	add("cores=32 lockspin", "tas", experiments.VarDirUD, 32, 2000, nil)
	return cells
}

// TestModelContract pins what the simulator computes: every sim.Result
// field and every component counter rowperf's ledger sums, for the
// cells of modelCells on seeds 1 and 7, one line per number, under a
// "# model N" header that must equal sim.ModelVersion. A change meant
// to leave the model alone leaves testdata/model.golden byte-identical;
// one meant to change it bumps sim.ModelVersion and regenerates the
// file with -update, which refuses new numbers under the old header.
func TestModelContract(t *testing.T) {
	var out bytes.Buffer
	out.WriteString("# rowsim model contract: go test ./internal/sim -run TestModelContract -update\n")
	header := fmt.Sprintf("# model %d", sim.ModelVersion)
	out.WriteString(header + "\n")
	for _, seed := range []uint64{1, 7} {
		for _, c := range modelCells(t, seed) {
			writeModelCell(t, &out, fmt.Sprintf("seed=%d %s", seed, c.name), c)
		}
	}

	path := filepath.Join("testdata", "model.golden")
	want, err := os.ReadFile(path)
	if *update {
		// Past line 2 both files carry this header.
		if line, g, e := firstDiff(out.String(), string(want)); err == nil && line > 2 {
			t.Fatalf("model differs from %s at line %d:\n got  %q\n want %q\nunder the same header %q: bump sim.ModelVersion", path, line, g, e, header)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if line, g, e := firstDiff(out.String(), string(want)); line == 2 {
		t.Fatalf("%s has header %q, sim.ModelVersion says %q (run with -update and diff the file)", path, e, g)
	} else if line > 0 {
		t.Fatalf("model differs from %s at line %d:\n got  %q\n want %q\n(run with -update and diff the file)", path, line, g, e)
	}
}

// firstDiff returns the first line (from 1) where got and want differ,
// with both versions of it, or 0 when they are equal.
func firstDiff(got, want string) (line int, g, e string) {
	gl, el := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) || i < len(el); i++ {
		g, e = "", ""
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(el) {
			e = el[i]
		}
		if g != e {
			return i + 1, g, e
		}
	}
	return 0, "", ""
}

// writeModelCell runs one cell and appends its numbers, each line
// starting with prefix.
func writeModelCell(t *testing.T, out *bytes.Buffer, prefix string, c modelCell) {
	t.Helper()
	progs := workload.Generate(c.wp, c.cfg.NumCores, c.instrs, c.seed)
	sys, err := sim.New(c.cfg, progs, sim.WithWarmFilter(workload.WarmFilter(c.wp)))
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	put := func(name string, v any) { fmt.Fprintf(out, "%s %s %v\n", prefix, name, v) }

	rv := reflect.ValueOf(res)
	for i := 0; i < rv.NumField(); i++ {
		put("sim."+rv.Type().Field(i).Name, rv.Field(i).Interface())
	}

	var accesses, l1, l2, misses, mshrFull, extStalls, invals, prefetches, writebacks, missLatN uint64
	var missLatSum float64
	for _, pc := range sys.Caches() {
		st := &pc.Stats
		accesses += st.Accesses.Value()
		l1 += st.L1Hits.Value()
		l2 += st.L2Hits.Value()
		misses += st.Misses.Value()
		mshrFull += st.MSHRFull.Value()
		extStalls += st.ExtStalls.Value()
		invals += st.Invalidations.Value()
		prefetches += st.Prefetches.Value()
		writebacks += st.Writebacks.Value()
		missLatSum += st.MissLatency.Sum()
		missLatN += st.MissLatency.Count()
	}
	put("cache.accesses", accesses)
	put("cache.l1_hits", l1)
	put("cache.l2_hits", l2)
	put("cache.misses", misses)
	put("cache.miss_lat_sum", missLatSum)
	put("cache.miss_lat_count", missLatN)
	put("cache.mshr_full", mshrFull)
	put("cache.ext_stalls", extStalls)
	put("cache.invalidations", invals)
	put("cache.prefetches", prefetches)
	put("cache.writebacks", writebacks)

	var gets, getx, stalled, l3Hits, l3Misses uint64
	for _, d := range sys.Directories() {
		gets += d.Stats.GetS.Value()
		getx += d.Stats.GetX.Value()
		stalled += d.Stats.Stalled.Value()
		l3Hits += d.Stats.L3Hits.Value()
		l3Misses += d.Stats.L3Misses.Value()
	}
	put("coherence.gets", gets)
	put("coherence.getx", getx)
	put("coherence.stalled", stalled)
	put("coherence.l3_hits", l3Hits)
	put("coherence.l3_misses", l3Misses)

	// interconnect.msgs is sim.NetworkMessages above.
	put("interconnect.hops_sum", sys.Snapshot().Mesh.HopsSum)
}
