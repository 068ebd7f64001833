package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	s := summarize([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.N != 10 {
		t.Errorf("1..10: got q1 %v median %v q3 %v n %d", s.Q1, s.Median, s.Q3, s.N)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if s := summarize([]float64{4, 1, 2}); s.Q1 != 1 || s.Median != 2 || s.Q3 != 4 {
		t.Errorf("[1 2 4]: got q1 %v median %v q3 %v", s.Q1, s.Median, s.Q3)
	}
	if s := summarize([]float64{7}); s.Q1 != 7 || s.Median != 7 || s.Q3 != 7 {
		t.Errorf("single sample: got %+v", s)
	}
	if s := summarize(nil); s.N != 0 || s.Median != 0 {
		t.Errorf("no samples: got %+v", s)
	}
	if got := summarize([]float64{90, 100, 110, 120}).spread(); got != (117.5-92.5)/105 {
		t.Errorf("spread: got %v", got)
	}
	sorted := []float64{10, 20, 30, 40, 50}
	for p, want := range map[float64]float64{0: 10, 0.5: 30, 0.9: 46, 1: 50} {
		if got := percentile(sorted, p); got != want {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
}

// Samples taken on several inputs spread within their own input only.
func TestSummarizeByInput(t *testing.T) {
	// Two inputs 2x apart in cost, each repeating to 1%: the mixed
	// quartiles would read the 2x, the per-input ones read the 1%.
	samples := []float64{99, 198, 100, 200, 101, 202, 100, 200}
	inputs := []int{0, 1, 0, 1, 0, 1, 0, 1}
	if mixed := summarize(samples).spread(); mixed < 0.5 {
		t.Fatalf("mixed spread %v: the fixture's inputs should differ", mixed)
	}
	s := summarizeBy(samples, inputs)
	if s.Median != 149.5 || s.N != 8 || s.spread() > 0.02 || s.spread() < 0.01 {
		t.Errorf("per-input summary: median %v n %d spread %v, want 149.5, 8, 0.01..0.02", s.Median, s.N, s.spread())
	}
	one := summarizeBy([]float64{90, 100, 110, 120}, []int{0, 0, 0, 0})
	if plain := summarize([]float64{90, 100, 110, 120}); one.Q1 != plain.Q1 || one.Q3 != plain.Q3 {
		t.Errorf("one input: quartiles %v %v, want %v %v", one.Q1, one.Q3, plain.Q1, plain.Q3)
	}
}

// A percentile is quotable as a tail only with ten samples beyond it.
func TestTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		p    float64
		n    int
		want bool
	}{
		{0.5, 19, false}, {0.5, 20, true},
		{0.9, 99, false}, {0.9, 100, true}, {0.9, 120, true},
		{0.99, 120, false}, {0.99, 1000, true},
	} {
		if got := reportable(c.p, c.n); got != c.want {
			t.Errorf("reportable(p%v of %d) = %v, want %v", c.p*100, c.n, got, c.want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "unit", Start: 0, End: 100, Parent: noSpan},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},  // overlaps a: union 10..50
		{Name: "c", Start: 60, End: 120, Parent: 0}, // clipped to the parent's end
		{Name: "a", Start: 12, End: 20, Parent: 1},
	}
	self := selfTimes(spans)
	for i, want := range []int64{100 - 40 - 40, 20 - 8, 30, 60, 8} {
		if self[i] != want {
			t.Errorf("span %d (%s): self %d, want %d", i, spans[i].Name, self[i], want)
		}
	}
	if got := selfByName(spans)["a"]; got != 12+8 {
		t.Errorf(`self time of "a" spans: %d, want 20`, got)
	}

	// A nil tracer is tracing off: spans are no-ops.
	var off *tracer
	if id := off.begin(noSpan, "x"); id != noSpan || off.end(id) != 0 {
		t.Error("nil tracer recorded a span")
	}
	tr := newTracer()
	root := tr.begin(noSpan, "unit")
	tr.end(tr.begin(root, "child"))
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[0].End < tr.spans[1].End {
		t.Errorf("tracer recorded %+v", tr.spans)
	}
}

// The names and limits the benchmark contract fixes.
func TestDeclarations(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind, n string) {
		if !name.MatchString(n) {
			t.Errorf("%s name %q is not a legal name", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloadDecls); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range workloadDecls {
		check("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if _, err := newBench(w.Name, 1, small, 1); err != nil {
			t.Errorf("workload %s is declared but cannot be built: %v", w.Name, err)
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	for _, d := range endToEnd {
		check("end-to-end metric", d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, d := range perLayer {
		check("per-layer metric", d.Name)
		if d.Bound != 0 {
			t.Errorf("%s: per-layer metrics have no bound", d.Name)
		}
	}
	for _, d := range append(append([]metricDecl(nil), endToEnd...), perLayer...) {
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is not a legal unit", d.Name, d.Unit)
		}
		if d.Better != higher && d.Better != lower {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
	}
	if d := endToEnd[0]; d.Name != "setup_s" || d.Unit != "s" || d.Better != lower {
		t.Errorf("the set-up metric must be setup_s in s, lower is better; got %+v", d)
	}
}

// BENCHMARK.json is generated from the declarations (rowperf
// -manifest); the committed file must be that output.
func TestManifestIsCurrent(t *testing.T) {
	want, err := json.MarshalIndent(buildManifest(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(got), want) {
		t.Error("BENCHMARK.json is stale: regenerate with `go run ./cmd/rowperf -manifest > BENCHMARK.json`")
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(got))
	}
}

// appliesTo says on which workloads a per-layer metric is measured;
// everywhere else it reads 0 with no samples. This is README.md's
// "measured on" column.
func appliesTo(metric, workload string) bool {
	switch {
	case strings.HasPrefix(metric, "checkpoint."), metric == "sim.snapshot_ms", metric == "sim.restore_ms":
		return workload == "ckpt-8c"
	case strings.HasPrefix(metric, "serve."), strings.HasPrefix(metric, "lifecycle."):
		return workload == "serve-sweeps"
	case strings.HasPrefix(metric, "experiments."):
		return workload == "figcells-8c"
	case strings.HasPrefix(metric, "model."):
		return workload == "contended-32c"
	}
	return true
}

// TestHostSpeed pins the reference-second arithmetic: a host that runs
// the reference kernel in refNominal runs at speed 1, one that needs
// twice as long on average at half of it.
func TestHostSpeed(t *testing.T) {
	if got := hostSpeed(refNominal, refNominal); got != 1 {
		t.Errorf("hostSpeed(nominal, nominal) = %v, want 1", got)
	}
	if got := hostSpeed(3*refNominal, refNominal); got != 0.5 {
		t.Errorf("hostSpeed(3 nominal, nominal) = %v, want 0.5", got)
	}
	if d := refKernel(); d <= 0 {
		t.Errorf("refKernel took %v", d)
	}
}

// One repetition of every workload at reduced size: every declared
// metric is emitted where it applies, nothing fails, no temp file
// survives.
func TestSmokeEveryWorkload(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	bud := budget{reps: 1}
	for _, w := range workloadDecls {
		e2e, err := runEndToEnd(w.Name, 1, small, bud)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if e2e.Failed != 0 || !e2e.Correct || e2e.Attempted < 1 {
			t.Errorf("%s: end-to-end pass: %d of %d operations failed: %v", w.Name, e2e.Failed, e2e.Attempted, e2e.Notes)
		}
		if e2e.HostSpeed <= 0 {
			t.Errorf("%s: end-to-end pass reports host speed %v", w.Name, e2e.HostSpeed)
		}
		for _, d := range endToEnd {
			if s, ok := e2e.Metrics[d.Name]; !ok || s.N == 0 || s.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s not emitted (or 0): %+v", w.Name, d.Name, s)
			}
		}

		layer, err := runTraced(w.Name, 1, small, bud, filepath.Join(tmp, "out"))
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if layer.Failed != 0 || !layer.Correct {
			t.Errorf("%s: traced pass: %d of %d operations failed: %v", w.Name, layer.Failed, layer.Attempted, layer.Notes)
		}
		if !strings.HasPrefix(e2e.SimDigest, layer.SimDigest) {
			t.Errorf("%s: traced pass sim_digest %s, untraced %s", w.Name, layer.SimDigest, e2e.SimDigest)
		}
		for _, d := range perLayer {
			s, ok := layer.Metrics[d.Name]
			if !ok {
				t.Errorf("%s: per-layer metric %s missing", w.Name, d.Name)
			} else if measured := s.N > 0; measured != appliesTo(d.Name, w.Name) {
				t.Errorf("%s: per-layer metric %s measured=%v, but applies=%v", w.Name, d.Name, measured, !measured)
			}
		}
		var line struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value *float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(layer.contractLine()), &line); err != nil {
			t.Fatalf("%s: contract line is not JSON: %v", w.Name, err)
		}
		if len(line.Metrics) != len(perLayer) || !line.Correct || line.Attempted != layer.Attempted {
			t.Errorf("%s: contract line carries %d metrics, want %d", w.Name, len(line.Metrics), len(perLayer))
		}
		if _, err := os.Stat(filepath.Join(tmp, "out", "trace-"+w.Name+".json")); err != nil {
			t.Errorf("%s: traced pass wrote no spans: %v", w.Name, err)
		}
	}
	left, err := filepath.Glob(filepath.Join(tmp, "rowperf-*"))
	if err != nil || len(left) > 0 {
		t.Errorf("temp files left behind: %v (%v)", left, err)
	}
}

func TestJudge(t *testing.T) {
	up := metricDecl{Name: "x_per_s", Better: higher, Bound: 0.10}
	down := metricDecl{Name: "x_ms", Better: lower, Bound: 0.10}
	tight := func(m float64) summary { return summarize([]float64{m * 0.99, m, m, m * 1.01}) }
	wide := func(m float64) summary { return summarize([]float64{m * 0.7, m * 0.9, m * 1.1, m * 1.3}) }
	for _, c := range []struct {
		name string
		d    metricDecl
		a, b summary
		want verdict
	}{
		{"same", up, tight(100), tight(100), ok},
		{"within bound", up, tight(100), tight(92), ok},
		{"throughput fell", up, tight(100), tight(85), regressed},
		{"throughput rose", up, tight(100), tight(150), ok},
		{"latency rose", down, tight(100), tight(115), regressed},
		{"latency fell", down, tight(100), tight(50), ok},
		{"noisy parent", up, wide(100), tight(85), unresolved},
		{"noisy parent, clear win", up, wide(100), tight(200), ok},
		{"noisy parent, clear win, lower is better", down, wide(100), tight(40), ok},
		{"metric dropped", down, tight(100), summary{}, regressed},
		{"metric dropped, noisy parent", down, wide(100), summary{}, regressed},
		{"two inputs, steady within each", up, twoInputs(100, 200), twoInputs(100, 200), ok},
		{"two inputs, one fell", up, twoInputs(100, 200), twoInputs(100, 120), regressed},
		{"noisy input, win on one input only", up, twoInputs(100, 200, 0.3), twoInputs(250, 250), unresolved},
		{"noisy input, win on both", up, twoInputs(100, 200, 0.3), twoInputs(250, 500), ok},
	} {
		if got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// twoInputs is a pass that alternated between two inputs reading x and
// y, each to within noise (default 1%).
func twoInputs(x, y float64, noise ...float64) summary {
	e := 0.01
	if len(noise) > 0 {
		e = noise[0]
	}
	return summarizeBy([]float64{x * (1 - e), y * (1 - e), x, y, x * (1 + e), y * (1 + e)}, []int{0, 1, 0, 1, 0, 1})
}

func TestCompareReports(t *testing.T) {
	dir := t.TempDir()
	mk := func(name string, instrs float64, digest string, drop ...string) string {
		m := map[string]summary{}
		for _, d := range endToEnd {
			m[d.Name] = summarize([]float64{100, 100, 100})
		}
		m["sim_instrs_per_s"] = summarize([]float64{instrs, instrs, instrs})
		for _, d := range drop {
			delete(m, d)
		}
		path := filepath.Join(dir, name)
		rep := report{Seed: 1, Workloads: []workloadReport{{Name: "lockspin-32c", SimDigest: digest, EndToEnd: m,
			PerLayer: map[string]summary{"sim.cycles": summarize([]float64{instrs})}}}}
		if name == "empty.json" {
			rep.Workloads = nil
		}
		if err := writeJSON(path, rep); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, slow := mk("a.json", 1000, "d1"), mk("same.json", 1000, "d1"), mk("slow.json", 700, "d2")
	var out bytes.Buffer
	if code := compareReports(&out, a, same); code != 0 || strings.Contains(out.String(), "differs") {
		t.Errorf("A/A compare: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareReports(&out, a, slow); code != 1 {
		t.Errorf("a 30%% throughput loss must exit 1, got %d\n%s", code, out.String())
	}
	for _, want := range []string{"regressed", "sim_digest differs", "count sim.cycles differs"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("compare output lacks %q:\n%s", want, out.String())
		}
	}
	// A run that drops a metric or a workload must not pass.
	out.Reset()
	if code := compareReports(&out, a, mk("nolat.json", 1000, "d1", "sweep_latency_p50_ms")); code != 1 {
		t.Errorf("B lacks a metric: exit %d, want 1\n%s", code, out.String())
	}
	out.Reset()
	if code := compareReports(&out, a, mk("empty.json", 1000, "d1")); code != 1 || !strings.Contains(out.String(), "missing from B") {
		t.Errorf("B lacks the workload: exit %d, want 1\n%s", code, out.String())
	}
}
