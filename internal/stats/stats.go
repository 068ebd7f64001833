// Package stats provides the counters, means and histograms the
// simulator components use to record behaviour, plus helpers to format
// experiment tables.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Counter is a simple monotonically increasing event counter.
type Counter struct {
	n uint64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta uint64) { c.n += delta }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n++ }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Mean accumulates samples and reports their arithmetic mean.
type Mean struct {
	sum float64
	n   uint64
}

// Observe records one sample.
func (m *Mean) Observe(v float64) {
	m.sum += v
	m.n++
}

// Count returns the number of samples observed.
func (m *Mean) Count() uint64 { return m.n }

// Sum returns the running total.
func (m *Mean) Sum() float64 { return m.sum }

// Merge adds o's samples to m.
func (m *Mean) Merge(o *Mean) { m.sum, m.n = m.sum+o.sum, m.n+o.n }

// Value returns the mean, or 0 when no samples were observed.
func (m *Mean) Value() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

// Histogram records samples into exponentially sized latency buckets:
// [0,1), [1,2), [2,4), [4,8), ... Values below zero clamp to bucket 0.
type Histogram struct {
	buckets []uint64
	sum     float64
	n       uint64
	max     float64
}

// NewHistogram returns a histogram with enough buckets to separate
// values up to maxValue.
func NewHistogram(maxValue float64) *Histogram {
	b := 2
	for v := 1.0; v < maxValue; v *= 2 {
		b++
	}
	return &Histogram{buckets: make([]uint64, b)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.sum += v
	h.n++
	if v > h.max {
		h.max = v
	}
	idx := 0
	if v >= 1 {
		idx = 1 + int(math.Log2(v))
	}
	if idx >= len(h.buckets) {
		idx = len(h.buckets) - 1
	}
	if idx < 0 {
		idx = 0
	}
	h.buckets[idx]++
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.n }

// Mean returns the sample mean, or 0 when empty.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Max returns the largest sample observed.
func (h *Histogram) Max() float64 { return h.max }

// Merge folds other's samples into h (bucket-wise; both histograms
// must have been created with compatible ranges — extra buckets in
// other clamp into h's last bucket).
func (h *Histogram) Merge(other *Histogram) {
	if other == nil {
		return
	}
	for i, c := range other.buckets {
		idx := i
		if idx >= len(h.buckets) {
			idx = len(h.buckets) - 1
		}
		h.buckets[idx] += c
	}
	h.sum += other.sum
	h.n += other.n
	if other.max > h.max {
		h.max = other.max
	}
}

// Quantile returns an upper bound for the q-quantile (0 < q <= 1) using
// bucket upper edges. It returns 0 when the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(h.n)))
	if target == 0 {
		target = 1
	}
	var seen uint64
	for i, c := range h.buckets {
		seen += c
		if seen >= target {
			if i == 0 {
				return 1
			}
			return math.Pow(2, float64(i))
		}
	}
	return h.max
}

// Table renders rows of experiment results with aligned columns, in
// the spirit of the paper's figures rendered as text.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends one formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i == len(cells)-1 {
				b.WriteString(c) // no trailing padding
			} else {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (header row first,
// cells quoted only when needed).
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
			}
			b.WriteString(c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// F formats a float with 3 decimal places for table cells.
func F(v float64) string { return fmt.Sprintf("%.3f", v) }

// F1 formats a float with 1 decimal place for table cells.
func F1(v float64) string { return fmt.Sprintf("%.1f", v) }

// Pct formats a ratio as a percentage with 1 decimal place.
func Pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }

// GeoMean returns the geometric mean of vs, ignoring non-positive
// entries; it returns 0 when no positive entries exist.
func GeoMean(vs []float64) float64 {
	var logSum float64
	var n int
	for _, v := range vs {
		if v > 0 {
			logSum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// ArithMean returns the arithmetic mean of vs, or 0 when empty.
func ArithMean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}
