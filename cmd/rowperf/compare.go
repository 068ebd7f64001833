package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdict is one row's outcome in -compare.
type verdict string

const (
	ok         verdict = "ok"
	regressed  verdict = "regressed"
	unresolved verdict = "unresolved"
)

// worsening is how far b is worse than a, as a share of a (negative
// when b is better).
func worsening(d metricDecl, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	change := (b - a) / a
	if d.Better == higher {
		return -change
	}
	return change
}

// judge applies the benchmark's rule to one workload × metric pair.
// A metric a reports and b does not has regressed: a run that drops a
// metric must not pass. Where a's own run-to-run spread is wider than
// the bound, the pair cannot be called either way — unless every
// sample of b reads better than every sample of a.
func judge(d metricDecl, a, b summary) verdict {
	if a.N > 0 && b.N == 0 {
		return regressed
	}
	if a.spread() > d.Bound {
		if everyBetter(d, a, b) {
			return ok
		}
		return unresolved
	}
	if worsening(d, a.Value, b.Value) > d.Bound {
		return regressed
	}
	return ok
}

// everyBetter reports whether, input by input, every b sample beats
// every a sample.
func everyBetter(d metricDecl, a, b summary) bool {
	groupsB := b.byInput()
	if len(a.Samples) == 0 {
		return false
	}
	for in, sa := range a.byInput() {
		sb := groupsB[in]
		switch {
		case len(sb) == 0:
			return false
		case d.Better == higher && pooled(sb, 0) <= pooled(sa, 1):
			return false
		case d.Better == lower && pooled(sb, 1) >= pooled(sa, 0):
			return false
		}
	}
	return true
}

func readReport(path string) (report, error) {
	var r report
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compareReports prints, per workload and end-to-end metric, both
// values, B/A with its base, the bound and the verdict; then the
// digests and deterministic counts that differ. It returns 1 when any
// row regressed, 2 when a report cannot be read.
func compareReports(w io.Writer, pathA, pathB string) int {
	a, err := readReport(pathA)
	if err != nil {
		return fail(err)
	}
	b, err := readReport(pathB)
	if err != nil {
		return fail(err)
	}
	byName := make(map[string]workloadReport)
	for _, wl := range b.Workloads {
		byName[wl.Name] = wl
	}
	counts := map[verdict]int{}
	fmt.Fprintf(w, "A = %s (seed %d)   B = %s (seed %d)\n", pathA, a.Seed, pathB, b.Seed)
	fmt.Fprintf(w, "%-14s %-22s %14s %14s %18s %6s  %s\n", "workload", "metric", "A", "B", "B/A (base A)", "bound", "verdict")
	for _, wa := range a.Workloads {
		wb, found := byName[wa.Name]
		if !found {
			counts[regressed]++
			fmt.Fprintf(w, "%-14s missing from B: %s\n", wa.Name, regressed)
			continue
		}
		for _, d := range endToEnd {
			sa, sb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			v := judge(d, sa, sb)
			counts[v]++
			note := ""
			if v == unresolved {
				note = fmt.Sprintf("  (A's quartile spread %.1f%%)", 100*sa.spread())
			}
			fmt.Fprintf(w, "%-14s %-22s %14.6g %14.6g %11.4f of %-4.4g %5.0f%%  %s%s\n",
				wa.Name, d.Name, sa.Value, sb.Value, ratio(sb.Value, sa.Value), sa.Value, 100*d.Bound, v, note)
		}
		// failed_frac may not rise at all.
		v := ok
		if wb.FailedFrac > wa.FailedFrac {
			v = regressed
		}
		counts[v]++
		fmt.Fprintf(w, "%-14s %-22s %14.6g %14.6g %18s %6s  %s\n", wa.Name, "failed_frac", wa.FailedFrac, wb.FailedFrac, "", "0%", v)

		if wa.SimDigest != wb.SimDigest {
			fmt.Fprintf(w, "%-14s sim_digest differs: A %s, B %s (simulated statistics changed)\n", wa.Name, wa.SimDigest, wb.SimDigest)
		}
		for _, d := range perLayer {
			ca, okA := wa.PerLayer[d.Name]
			cb, okB := wb.PerLayer[d.Name]
			if d.Count && okA && okB && ca.Value != cb.Value {
				fmt.Fprintf(w, "%-14s count %s differs: A %g, B %g\n", wa.Name, d.Name, ca.Value, cb.Value)
			}
		}
	}
	fmt.Fprintf(w, "%d ok, %d regressed, %d unresolved\n", counts[ok], counts[regressed], counts[unresolved])
	if counts[regressed] > 0 {
		return 1
	}
	return 0
}
