package stats

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
}

func TestMean(t *testing.T) {
	var m Mean
	if m.Value() != 0 {
		t.Fatal("empty mean must be 0")
	}
	m.Observe(2)
	m.Observe(4)
	if m.Value() != 3 || m.Count() != 2 {
		t.Fatalf("mean/count = %v/%d, want 3/2", m.Value(), m.Count())
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(1024)
	for _, v := range []float64{0, 1, 2, 3, 100, 1000} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Max() != 1000 {
		t.Fatalf("max = %v", h.Max())
	}
	if got, want := h.Mean(), (0.0+1+2+3+100+1000)/6; math.Abs(got-want) > 1e-9 {
		t.Fatalf("mean = %v, want %v", got, want)
	}
}

func TestHistogramQuantileMonotonic(t *testing.T) {
	f := func(seed int64) bool {
		h := NewHistogram(4096)
		x := uint64(seed)
		for i := 0; i < 200; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			h.Observe(float64(x % 4096))
		}
		q50 := h.Quantile(0.5)
		q90 := h.Quantile(0.9)
		q99 := h.Quantile(0.99)
		return q50 <= q90 && q90 <= q99 && q99 <= math.Max(h.Max(), q99)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramMerge(t *testing.T) {
	a := NewHistogram(1024)
	b := NewHistogram(1024)
	for _, v := range []float64{1, 2, 3} {
		a.Observe(v)
	}
	for _, v := range []float64{100, 200} {
		b.Observe(v)
	}
	a.Merge(b)
	if a.Count() != 5 {
		t.Fatalf("merged count = %d, want 5", a.Count())
	}
	if a.Max() != 200 {
		t.Fatalf("merged max = %v, want 200", a.Max())
	}
	if got, want := a.Mean(), 306.0/5; math.Abs(got-want) > 1e-9 {
		t.Fatalf("merged mean = %v, want %v", got, want)
	}
	a.Merge(nil) // no-op
	if a.Count() != 5 {
		t.Fatal("nil merge changed the histogram")
	}
}

func TestHistogramQuantileEmpty(t *testing.T) {
	h := NewHistogram(16)
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile must be 0")
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Title: "T", Headers: []string{"x", "yy"}}
	tb.AddRow("long-cell", "1")
	out := tb.String()
	if !strings.Contains(out, "T\n") {
		t.Fatal("missing title")
	}
	if !strings.Contains(out, "long-cell") {
		t.Fatal("missing cell")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // title, header, separator, row
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), out)
	}
	// Columns aligned: header and row share the column-2 offset.
	hIdx := strings.Index(lines[1], "yy")
	rIdx := strings.Index(lines[3], "1")
	if hIdx != rIdx {
		t.Fatalf("column 2 misaligned: header@%d row@%d", hIdx, rIdx)
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{2, 8}); math.Abs(got-4) > 1e-9 {
		t.Fatalf("geomean(2,8) = %v, want 4", got)
	}
	if got := GeoMean(nil); got != 0 {
		t.Fatalf("geomean(nil) = %v, want 0", got)
	}
	// Non-positive entries ignored.
	if got := GeoMean([]float64{0, -1, 4}); math.Abs(got-4) > 1e-9 {
		t.Fatalf("geomean with junk = %v, want 4", got)
	}
}

func TestArithMean(t *testing.T) {
	if got := ArithMean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("mean = %v", got)
	}
	if got := ArithMean(nil); got != 0 {
		t.Fatalf("mean(nil) = %v", got)
	}
}

func TestFormatters(t *testing.T) {
	if F(1.23456) != "1.235" {
		t.Fatalf("F = %q", F(1.23456))
	}
	if F1(1.26) != "1.3" {
		t.Fatalf("F1 = %q", F1(1.26))
	}
	if Pct(0.125) != "12.5%" {
		t.Fatalf("Pct = %q", Pct(0.125))
	}
}

// binaryForm is what a checkpoint asks of an accumulator.
type binaryForm interface {
	AppendBinary([]byte) ([]byte, error)
	UnmarshalBinary([]byte) error
}

// TestBinaryRoundTrip: the binary form of each accumulator restores its
// exact state — floats bit for bit, so NaN, the infinities and negative
// zero survive. AppendBinary appends after what the buffer already
// holds, as a checkpoint body calls it, and leaves that prefix alone.
func TestBinaryRoundTrip(t *testing.T) {
	sums := []float64{0, math.Copysign(0, -1), 1.5, -7e300, math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff8_0000_dead_beef)} // a NaN with a payload
	prefix := []byte("body so far")
	for _, sum := range sums {
		c, m, h := Counter{n: 1<<63 + 5}, Mean{sum: sum, n: 3}, NewHistogram(64)
		h.Observe(3)
		h.Observe(1000)
		h.sum, h.max = sum, sum

		var outC Counter
		var outM Mean
		outH := new(Histogram)
		for _, p := range []struct {
			from, to binaryForm
		}{{&c, &outC}, {&m, &outM}, {h, outH}} {
			b, err := p.from.AppendBinary(append([]byte(nil), prefix...))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(b, prefix) {
				t.Fatalf("AppendBinary overwrote the buffer's prefix: %q", b)
			}
			if err := p.to.UnmarshalBinary(b[len(prefix):]); err != nil {
				t.Fatal(err)
			}
		}

		bits := math.Float64bits
		if outC != c || outM.n != m.n || bits(outM.sum) != bits(sum) {
			t.Errorf("sum %v: counter/mean came back %+v %+v", sum, outC, outM)
		}
		if outH.n != h.n || bits(outH.sum) != bits(sum) || bits(outH.max) != bits(sum) ||
			len(outH.buckets) != len(h.buckets) {
			t.Fatalf("sum %v: histogram came back %+v", sum, outH)
		}
		for i := range outH.buckets {
			if outH.buckets[i] != h.buckets[i] {
				t.Errorf("sum %v: bucket %d is %d, want %d", sum, i, outH.buckets[i], h.buckets[i])
			}
		}
	}
}

// TestBinaryRejectsMalformed: input cut short (or padded) is an error,
// never a panic, and a histogram with no buckets — whose Observe would
// index out of range — is refused.
func TestBinaryRejectsMalformed(t *testing.T) {
	h := NewHistogram(16)
	h.Observe(2)
	for name, v := range map[string]binaryForm{"counter": &Counter{n: 9}, "mean": &Mean{sum: 2, n: 1}, "histogram": h} {
		whole, err := v.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n <= len(whole)+1; n++ {
			if n == len(whole) || name == "histogram" && n > histogramFixed && (n-histogramFixed)%8 == 0 {
				continue // a well-formed length
			}
			if err := v.UnmarshalBinary(append(whole, 0)[:n]); err == nil {
				t.Errorf("%s: %d of %d bytes accepted", name, n, len(whole))
			}
		}
	}
	if err := new(Histogram).UnmarshalBinary(make([]byte, histogramFixed)); err == nil {
		t.Error("binary histogram with no buckets accepted")
	}
}
