package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// budget bounds one pass: a fixed number of repetitions when reps > 0
// (tests, -reps), otherwise as many as fit in the given time.
type budget struct {
	reps    int
	seconds float64
}

// more reports whether another repetition should start: done
// repetitions so far, elapsed time, and the cost of one repetition
// (0 when a started repetition may overrun the time budget).
func (b budget) more(done int, elapsed, next time.Duration) bool {
	if done == 0 {
		return true
	}
	if b.reps > 0 {
		return done < b.reps
	}
	return (elapsed + next).Seconds() <= b.seconds
}

// passResult is what one pass over one workload reports. Metrics are
// the end-to-end metrics of an untraced pass or the per-layer ledger
// of a traced one.
type passResult struct {
	Workload  string `json:"workload"`
	Seed      uint64 `json:"seed"`
	Traced    bool   `json:"traced"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	SimDigest string `json:"sim_digest"`
	// HostSpeed is the median of the host's speed over the pass's units
	// as a share of the reference host's (see ref.go): the end-to-end
	// pass quotes host time in reference seconds, and a wall-clock
	// second was this many of them.
	HostSpeed float64            `json:"host_speed,omitempty"`
	Metrics   map[string]summary `json:"metrics"`
	Notes     []string           `json:"notes,omitempty"`
}

func (r *passResult) absorb(k checks) {
	r.Attempted += k.n
	r.Failed += k.failed
	r.Notes = append(r.Notes, k.msgs...)
}

// expect counts one invariant check of the harness's own.
func (r *passResult) expect(ok bool, format string, args ...any) {
	var k checks
	k.expect(ok, format, args...)
	r.absorb(k)
}

// decls lists the metrics the pass reports, in declaration order.
func (r *passResult) decls() []metricDecl {
	if r.Traced {
		return perLayer
	}
	return endToEnd
}

const (
	// setUps is how many times a pass sets its workload up: set-up
	// time is a bounded metric, and one sample of it is too noisy.
	setUps = 3
	// inputPool is how many generated inputs the end-to-end pass
	// rotates through (see inputs). The traced pass uses the
	// first only, so its counts repeat from iteration to iteration.
	inputPool = 4
)

// runEndToEnd is the untraced pass: set up (three times, keeping the
// last), repeat the unit back to back, verify.
func runEndToEnd(name string, seed uint64, sz sizes, bud budget) (passResult, error) {
	res := passResult{Workload: name, Seed: seed, Metrics: make(map[string]summary)}
	var b bench
	var setupS []float64
	for i := 0; i < setUps; i++ {
		if b != nil {
			if err := b.close(); err != nil {
				return res, err
			}
		}
		start := time.Now()
		var err error
		if b, err = newBench(name, seed, sz, inputPool); err != nil {
			return res, err
		}
		if err = b.setup(); err != nil {
			b.close()
			return res, fmt.Errorf("%s: set-up: %w", name, err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer b.close()

	// One sample per unit, and which input the unit ran (inputs): the
	// units of one input differ by host noise alone, so spreads are
	// taken within an input. lat holds every latency sample by input.
	var instrs, cycles, cells, alloc, latP50, latP90, speeds []float64
	var inputs []int
	window := make([]tally, inputPool)
	lat := make([][]float64, inputPool)
	var unitWall time.Duration
	digests := make([]string, inputPool) // by input; "" until first seen
	before := refKernel()
	begin := time.Now()
	for n := 0; bud.more(n, time.Since(begin), 0); n++ {
		m0 := markMem()
		start := time.Now()
		out := b.unit(nil)
		unitWall = time.Since(start) - out.paused
		m1 := markMem()
		after := refKernel()
		speed := hostSpeed(before, after)
		speeds, before = append(speeds, speed), after
		res.absorb(out.checks)
		if digests[out.input] == "" {
			digests[out.input] = out.digest
		}
		res.expect(out.digest == digests[out.input], "repetition %d: sim_digest %s, but the same input gave %s before", n, out.digest, digests[out.input])

		// s is the unit's host time in reference seconds, and so is
		// every latency below.
		s, allocMB := unitWall.Seconds()*speed, float64(m1.bytes-m0.bytes)/mb
		inputs = append(inputs, out.input)
		instrs = append(instrs, float64(out.instrs)/s)
		cycles = append(cycles, float64(out.cycles)/s)
		cells = append(cells, float64(out.cells)/s)
		alloc = append(alloc, ratio(allocMB, float64(out.cells)))
		t := &window[out.input]
		t.n++
		t.instrs += float64(out.instrs)
		t.cycles += float64(out.cycles)
		t.cells += float64(out.cells)
		t.seconds += s
		unitLat := out.sweepMS
		if len(unitLat) == 0 {
			unitLat = []float64{ms(unitWall)}
		}
		for i := range unitLat {
			unitLat[i] *= speed
		}
		lat[out.input] = append(lat[out.input], unitLat...)
		latP50 = append(latP50, pooled(unitLat, 0.5))
		latP90 = append(latP90, pooled(unitLat, 0.9))
	}
	res.absorb(b.verify())
	if err := b.close(); err != nil {
		res.expect(false, "close: %v", err)
	}
	// One digest per input that ran, in input order; the traced pass
	// runs the first input only and must reproduce the first digest.
	var ran []string
	for _, d := range digests {
		if d != "" {
			ran = append(ran, d)
		}
	}
	res.SimDigest = strings.Join(ran, "-")
	res.HostSpeed = pooled(speeds, 0.5)

	// Throughput is quoted over the measurement window (work done /
	// time taken) with every input weighing the same: a median of
	// repetitions would quote whichever input sits in the middle, and
	// a plain total would lean towards the inputs that got one
	// repetition more before the time ran out. The per-repetition
	// summary rides along. Allocation is the median repetition's: it
	// barely differs between inputs and repeats exactly on each.
	perSecond := func(samples []float64, work func(tally) float64) summary {
		s := summarizeBy(samples, inputs)
		s.Value = ratio(balanced(window, work), balanced(window, func(t tally) float64 { return t.seconds }))
		return s
	}
	res.Metrics["setup_s"] = summarize(setupS)
	res.Metrics["sim_instrs_per_s"] = perSecond(instrs, func(t tally) float64 { return t.instrs })
	res.Metrics["sim_cycles_per_s"] = perSecond(cycles, func(t tally) float64 { return t.cycles })
	res.Metrics["cells_per_s"] = perSecond(cells, func(t tally) float64 { return t.cells })
	res.Metrics["alloc_mb_per_cell"] = summarizeBy(alloc, inputs)
	rss, err := peakRSSMB()
	if err != nil {
		return res, err
	}
	res.Metrics["peak_rss_mb"] = summarize([]float64{rss})
	nLat := 0
	for _, m := range []struct {
		name    string
		p       float64
		perUnit []float64
	}{{"sweep_latency_p50_ms", 0.5, latP50}, {"sweep_latency_p90_ms", 0.9, latP90}} {
		s := summarizeBy(m.perUnit, inputs)
		s.Value, nLat = quantileByInput(lat, m.p)
		s.N = nLat
		res.Metrics[m.name] = s
	}
	if perInput := nLat / max(len(ran), 1); !reportable(0.9, perInput) {
		res.Notes = append(res.Notes, fmt.Sprintf("sweep_latency_p90_ms rests on %d samples an input: fewer than ten lie beyond it, so quote the median", perInput))
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// tally is what the units of one input added to the measurement
// window.
type tally struct{ n, instrs, cycles, cells, seconds float64 }

// balanced sums what(t) over the inputs that ran, each input's total
// divided by its repetitions: one average unit of every input.
func balanced(window []tally, what func(tally) float64) float64 {
	var sum float64
	for _, t := range window {
		if t.n > 0 {
			sum += what(t) / t.n
		}
	}
	return sum
}

// quantileByInput is the p-quantile of each input's pooled latency
// samples, averaged over the inputs that ran, and how many samples
// there were in all.
func quantileByInput(lat [][]float64, p float64) (q float64, n int) {
	ran := 0
	for _, l := range lat {
		if len(l) > 0 {
			q += pooled(l, p)
			n += len(l)
			ran++
		}
	}
	return ratio(q, float64(ran)), n
}

// pooled is the p-quantile of unsorted samples.
func pooled(samples []float64, p float64) float64 {
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return percentile(sorted, p)
}

// runTraced is the traced pass: per iteration one untraced unit, one
// traced unit (their ratio is the tracing overhead) and the
// workload's per-layer probe. Spans stay in memory until the pass
// ends, then go to traceDir.
func runTraced(name string, seed uint64, sz sizes, bud budget, traceDir string) (passResult, error) {
	res := passResult{Workload: name, Seed: seed, Traced: true, Metrics: make(map[string]summary)}
	b, err := newBench(name, seed, sz, 1)
	if err != nil {
		return res, err
	}
	defer b.close()
	if err := b.setup(); err != nil {
		return res, fmt.Errorf("%s: set-up: %w", name, err)
	}

	tr := newTracer()
	l := make(ledger)
	begin := time.Now()
	var iter time.Duration
	for n := 0; bud.more(n, time.Since(begin), iter); n++ {
		iterStart := time.Now()
		m0 := markMem()
		start := time.Now()
		plain := b.unit(nil)
		plainWall := time.Since(start) - plain.paused
		m1 := markMem()
		l.add("host.gc_cycles", float64(m1.gcs-m0.gcs))
		l.add("host.gc_pause_ms", float64(m1.pauseNS-m0.pauseNS)/1e6)

		tr.nextUnit()
		start = time.Now()
		traced := b.unit(tr)
		l.add("trace.overhead_ratio", ratio(float64(time.Since(start)-traced.paused), float64(plainWall)))
		for name, v := range traced.layer {
			l.add(name, v)
		}
		res.absorb(plain.checks)
		res.absorb(traced.checks)
		res.expect(plain.digest == traced.digest, "traced unit's sim_digest %s differs from the untraced unit's %s", traced.digest, plain.digest)
		res.SimDigest = plain.digest

		res.absorb(b.probe(tr, l))
		iter = time.Since(iterStart)
	}
	if err := b.close(); err != nil {
		res.expect(false, "close: %v", err)
	}
	if err := tr.write(traceDir, name); err != nil {
		return res, fmt.Errorf("write trace: %w", err)
	}

	for _, d := range perLayer {
		// A metric with no samples is not measured on this workload
		// (checkpoint.* away from ckpt-8c, serve.* away from
		// serve-sweeps, ...): it reads 0 with n = 0.
		samples := l[d.Name]
		if d.Count && len(samples) > 0 {
			lo, hi := pooled(samples, 0), pooled(samples, 1)
			res.expect(lo == hi, "%s is a deterministic count but read %v and %v", d.Name, lo, hi)
		}
		res.Metrics[d.Name] = summarize(samples)
	}
	shares := res.Metrics["interconnect.tick_share"].Value + res.Metrics["coherence.handle_share"].Value +
		res.Metrics["cache.tick_share"].Value + res.Metrics["core.tick_share"].Value
	res.Notes = append(res.Notes, fmt.Sprintf("mesh+banks+caches+cores phase shares sum to %.3f of the lock-step loop", shares))
	res.Correct = res.Failed == 0
	return res, nil
}

// peakRSSMB reads this process's high-water resident set size.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// print writes the pass for a human: every metric by name with its
// unit, then the contract's one-line JSON object as the last line.
func (r *passResult) print(w io.Writer) {
	kind := "end-to-end, tracing off"
	if r.Traced {
		kind = "per-layer ledger, traced pass"
	}
	fmt.Fprintf(w, "== %s  seed %d  (%s)\n", r.Workload, r.Seed, kind)
	fmt.Fprintf(w, "%-34s %14s %-6s %14s %14s %14s %4s\n", "metric", "value", "unit", "median", "q1", "q3", "n")
	for _, d := range r.decls() {
		s := r.Metrics[d.Name]
		fmt.Fprintf(w, "%-34s %14.6g %-6s %14.6g %14.6g %14.6g %4d\n", d.Name, s.Value, d.Unit, s.Median, s.Q1, s.Q3, s.N)
	}
	if !r.Traced {
		fmt.Fprintf(w, "host time is in reference seconds; the host ran at %.3f of the reference host's speed (median over the units)\n", r.HostSpeed)
	}
	fmt.Fprintf(w, "failed_frac %g (%d of %d operations)   sim_digest %s\n", ratio(float64(r.Failed), float64(r.Attempted)), r.Failed, r.Attempted, r.SimDigest)
	fmt.Fprintln(w, "benchmark scale: no paper-fidelity error figure is given here (full-scale validation: EXPERIMENTS.md)")
	for _, n := range r.Notes {
		fmt.Fprintln(w, "note:", n)
	}
	fmt.Fprintln(w, r.contractLine())
}

// contractLine is the benchmark contract's result object.
func (r *passResult) contractLine() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, `{"correct": %v, "attempted": %d, "failed": %d, "metrics": {`, r.Correct, r.Attempted, r.Failed)
	for i, d := range r.decls() {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, `%q: {"value": %s, "unit": %q}`, d.Name, strconv.FormatFloat(r.Metrics[d.Name].Value, 'g', -1, 64), d.Unit)
	}
	sb.WriteString("}}")
	return sb.String()
}
