package viz

import (
	"strings"
	"testing"

	"rowsim/internal/stats"
)

func sample() *stats.Table {
	t := &stats.Table{Title: "T", Headers: []string{"wl", "ratio"}}
	t.AddRow("alpha", "0.500")
	t.AddRow("beta", "1.000")
	t.AddRow("gamma", "2.000")
	t.AddRow("junk", "n/a")
	return t
}

func TestNormChartProportions(t *testing.T) {
	out := NormChart(sample(), 1, 40)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // title + three parsable rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	count := func(s string) int { return strings.Count(s, "#") }
	a, b, g := count(lines[1]), count(lines[2]), count(lines[3])
	if g != 40 {
		t.Fatalf("max bar = %d, want full width 40", g)
	}
	if b != 20 || a != 10 {
		t.Fatalf("bars not proportional: %d/%d/%d", a, b, g)
	}
}

func TestNormChartEmpty(t *testing.T) {
	empty := &stats.Table{Headers: []string{"a", "b"}}
	if NormChart(empty, 1, 10) != "" {
		t.Fatal("empty table must render nothing")
	}
}

func TestNormChartMarker(t *testing.T) {
	out := NormChart(sample(), 1, 40)
	if !strings.Contains(out, "|") {
		t.Fatalf("missing 1.0 marker:\n%s", out)
	}
	// The 0.5 bar ends before the marker; 2.0 covers it.
	lines := strings.Split(out, "\n")
	alpha := lines[1]
	if !strings.Contains(alpha, "#") || strings.Index(alpha, "|") < strings.LastIndex(alpha, "#") {
		t.Fatalf("0.5 bar should stop before the 1.0 marker:\n%s", alpha)
	}
}

func TestPercentCellsParse(t *testing.T) {
	tab := &stats.Table{Headers: []string{"wl", "pct"}}
	tab.AddRow("x", "42.0%")
	out := NormChart(tab, 1, 10)
	if !strings.Contains(out, "42.000") {
		t.Fatalf("percent cell not parsed:\n%s", out)
	}
}

func TestTinyValueGetsMinimumBar(t *testing.T) {
	tab := &stats.Table{Headers: []string{"wl", "v"}}
	tab.AddRow("big", "1000")
	tab.AddRow("tiny", "0.001")
	out := NormChart(tab, 1, 30)
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "tiny") && !strings.Contains(line, "#") {
			t.Fatalf("tiny value rendered with no bar:\n%s", out)
		}
	}
}
