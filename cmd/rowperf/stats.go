package main

import (
	"math"
	"sort"
)

// summary is how every metric is reported: the median of its
// per-repetition samples, their quartiles and the sample count. Value
// is the number the metric is quoted as — the median, unless the
// metric is defined over the whole pass (throughput over the whole
// measurement window, a percentile of pooled latencies). The samples
// ride along so -compare can apply the "every run of B beats every
// run of A" rule; Inputs, where the pass rotates through several
// generated inputs, says which one each sample ran on.
type summary struct {
	Value   float64   `json:"value"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples,omitempty"`
	Inputs  []int     `json:"inputs,omitempty"`
}

// summarize reduces samples to a summary. Quartiles follow Python's
// statistics.quantiles(values, n=4) (the exclusive method), because
// that is what the acceptance driver applies to rowperf's outputs.
func summarize(samples []float64) summary {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	q1, q3 := quartiles(s)
	med := percentile(s, 0.5)
	return summary{Value: med, Median: med, Q1: q1, Q3: q3, N: len(s), Samples: samples}
}

// summarizeBy is summarize for samples taken on several inputs
// (inputs[i] is the one sample i ran on). Inputs differ in how much
// host time a simulated instruction costs, and that is not noise: the
// quartiles are those of every sample relative to its own input's
// median, scaled to the overall median, so that spread() reads the
// run-to-run noise alone. With one input they are summarize's.
func summarizeBy(samples []float64, inputs []int) summary {
	s := summarize(samples)
	s.Inputs = inputs
	var rel []float64
	for _, group := range s.byInput() {
		med := pooled(group, 0.5)
		for _, v := range group {
			rel = append(rel, ratio(v, med))
		}
	}
	sort.Float64s(rel)
	q1, q3 := quartiles(rel)
	s.Q1, s.Q3 = s.Median*q1, s.Median*q3
	return s
}

// byInput groups the samples by the input they ran on.
func (s summary) byInput() map[int][]float64 {
	groups := make(map[int][]float64)
	for i, v := range s.Samples {
		in := 0
		if i < len(s.Inputs) {
			in = s.Inputs[i]
		}
		groups[in] = append(groups[in], v)
	}
	return groups
}

// percentile interpolates the p-quantile (0 <= p <= 1) of a sorted
// sample linearly between closest ranks; 0 for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// quartiles returns the first and third quartile of a sorted sample
// by the exclusive method: the i-th of three cut points sits at
// position i*(n+1)/4 (1-based), clamped to the sample's range.
func quartiles(sorted []float64) (q1, q3 float64) {
	n := len(sorted)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return sorted[0], sorted[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// reportable says whether percentile p of n samples has at least ten
// samples beyond it — the rule for which tail a timing may quote. With
// n < 20 not even the median qualifies as a tail, so only medians are
// quoted; p90 needs n >= 100.
func reportable(p float64, n int) bool {
	return float64(n)*(1-p) >= 10-1e-9 // 100*(1-0.9) is 9.999999999999998
}

// spread is the interquartile distance as a share of the median: the
// repetition-to-repetition noise the bounds are judged against.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}
