// Command rowperf is the repo's benchmark: six workloads, the
// end-to-end metrics a user of the simulator or the daemon sees, and
// a per-layer ledger measured from outside by timing calls into each
// package's public functions. README.md in this directory names every
// workload and metric; BENCHMARK.json at the repo root is generated
// from the same tables (rowperf -manifest).
//
//	go run ./cmd/rowperf -seed 1 -out report.json   # every workload, both passes
//	go run ./cmd/rowperf -workload lockspin-32c     # one workload
//	go run ./cmd/rowperf -compare A.json B.json     # before/after rows
//
// One pass over one workload — the form the benchmark contract runs —
// is `rowperf -workload W -seed N -seconds S -trace 0|1`: it prints
// the metrics by name and, as its last line, one JSON object with
// correct / attempted / failed / metrics. Without -trace, rowperf
// re-executes itself once per workload and pass, so peak RSS and
// collector state are per workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

func main() { os.Exit(run()) }

// report is what a full run writes: every workload's two passes.
type report struct {
	Seed       uint64           `json:"seed"`
	GoVersion  string           `json:"go_version"`
	GoMaxProcs int              `json:"gomaxprocs"`
	Note       string           `json:"note"`
	Workloads  []workloadReport `json:"workloads"`
}

type workloadReport struct {
	Name       string             `json:"name"`
	SimDigest  string             `json:"sim_digest"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	FailedFrac float64            `json:"failed_frac"`
	HostSpeed  float64            `json:"host_speed"` // of the end-to-end pass (see passResult)
	EndToEnd   map[string]summary `json:"end_to_end"`
	PerLayer   map[string]summary `json:"per_layer,omitempty"`
	Notes      []string           `json:"notes,omitempty"`
}

func run() int {
	var (
		wl       = flag.String("workload", "", "run one workload (default: all six)")
		seed     = flag.Uint64("seed", 1, "seeds every generated input: trace seeds and sweep-spec seeds (1 = tuning seed, 7 = held-out seed)")
		seconds  = flag.Float64("seconds", runSeconds, "how long one pass repeats its unit")
		reps     = flag.Int("reps", 0, "repeat the unit exactly this many times instead of for -seconds")
		trace    = flag.Int("trace", -1, "run one pass in this process: 0 = end-to-end metrics, tracing off; 1 = traced pass, per-layer ledger")
		traced   = flag.Bool("traced", true, "a full run also makes the traced pass")
		out      = flag.String("out", "", "write the full run's report (JSON) here")
		passOut  = flag.String("pass-out", "", "with -trace: also write this pass's result (JSON) here")
		traceDir = flag.String("trace-dir", filepath.Join("cmd", "rowperf", "out"), "where the traced pass writes its spans")
		compare  = flag.Bool("compare", false, "compare two reports: rowperf -compare A.json B.json")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()

	switch {
	case *manifest:
		b, err := json.MarshalIndent(buildManifest(), "", "  ")
		if err != nil {
			return fail(err)
		}
		fmt.Println(string(b))
		return 0
	case *compare:
		if flag.NArg() != 2 {
			return fail(fmt.Errorf("-compare wants two report files"))
		}
		return compareReports(os.Stdout, flag.Arg(0), flag.Arg(1))
	}

	bud := budget{reps: *reps, seconds: *seconds}
	if *trace >= 0 {
		if *wl == "" {
			return fail(fmt.Errorf("-trace runs one pass and needs -workload"))
		}
		var res passResult
		var err error
		if *trace == 0 {
			res, err = runEndToEnd(*wl, *seed, full, bud)
		} else {
			res, err = runTraced(*wl, *seed, full, bud, *traceDir)
		}
		if err != nil {
			return fail(err)
		}
		res.print(os.Stdout)
		if *passOut != "" {
			if err := writeJSON(*passOut, res); err != nil {
				return fail(err)
			}
		}
		return 0
	}

	names := []string{*wl}
	if *wl == "" {
		names = names[:0]
		for _, d := range workloadDecls {
			names = append(names, d.Name)
		}
	}
	// Each pass runs in a child that gets the sizing flags verbatim.
	common := []string{
		"-seed", strconv.FormatUint(*seed, 10), "-seconds", strconv.FormatFloat(*seconds, 'g', -1, 64),
		"-reps", strconv.Itoa(*reps), "-trace-dir", *traceDir,
	}
	rep, err := fullRun(names, *seed, *traced, common)
	if err != nil {
		return fail(err)
	}
	if *out != "" {
		if err := writeJSON(*out, rep); err != nil {
			return fail(err)
		}
	}
	for _, w := range rep.Workloads {
		if w.Failed > 0 {
			return 1
		}
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "rowperf:", err)
	return 2
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// fullRun makes both passes over each workload, each pass in a child
// process of its own, and assembles their results.
func fullRun(names []string, seed uint64, traced bool, common []string) (report, error) {
	rep := report{
		Seed: seed, GoVersion: runtime.Version(), GoMaxProcs: runtime.GOMAXPROCS(0),
		Note: "benchmark scale; no paper-fidelity error figure (full-scale validation: EXPERIMENTS.md)",
	}
	self, err := os.Executable()
	if err != nil {
		return rep, err
	}
	tmp, err := os.MkdirTemp("", "rowperf-run-")
	if err != nil {
		return rep, err
	}
	defer os.RemoveAll(tmp)

	pass := func(name string, traced int) (passResult, error) {
		var res passResult
		file := filepath.Join(tmp, name+"-"+strconv.Itoa(traced)+".json")
		cmd := exec.Command(self, append([]string{"-workload", name, "-trace", strconv.Itoa(traced), "-pass-out", file}, common...)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return res, fmt.Errorf("%s (trace %d): %w", name, traced, err)
		}
		b, err := os.ReadFile(file)
		if err != nil {
			return res, err
		}
		return res, json.Unmarshal(b, &res)
	}
	for _, name := range names {
		e2e, err := pass(name, 0)
		if err != nil {
			return rep, err
		}
		w := workloadReport{
			Name: name, SimDigest: e2e.SimDigest, Attempted: e2e.Attempted, Failed: e2e.Failed,
			HostSpeed: e2e.HostSpeed, EndToEnd: e2e.Metrics, Notes: e2e.Notes,
		}
		if traced {
			layer, err := pass(name, 1)
			if err != nil {
				return rep, err
			}
			w.PerLayer = layer.Metrics
			w.Attempted += layer.Attempted
			w.Failed += layer.Failed
			w.Notes = append(w.Notes, layer.Notes...)
			if !strings.HasPrefix(e2e.SimDigest, layer.SimDigest) {
				w.Failed++
				w.Notes = append(w.Notes, fmt.Sprintf("traced pass sim_digest %s is not the untraced pass's first (%s)", layer.SimDigest, e2e.SimDigest))
			}
			w.Attempted++
		}
		w.FailedFrac = ratio(float64(w.Failed), float64(w.Attempted))
		rep.Workloads = append(rep.Workloads, w)
	}
	return rep, nil
}
