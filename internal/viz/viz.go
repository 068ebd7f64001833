// Package viz renders experiment tables as horizontal ASCII bar
// charts, so rowbench output reads like the paper's figures rather
// than raw numbers.
package viz

import (
	"fmt"
	"strconv"
	"strings"

	"rowsim/internal/stats"
)

// NormChart renders a normalized-time column with a reference line at
// 1.0: bars shorter than the marker beat the baseline.
func NormChart(t *stats.Table, column int, width int) string {
	if width <= 0 {
		width = 50
	}
	var b strings.Builder
	if t.Title != "" && column < len(t.Headers) {
		fmt.Fprintf(&b, "%s — %s (| marks 1.0)\n", t.Title, t.Headers[column])
	}
	labelW := 0
	maxVal := 1.0
	for _, r := range t.Rows {
		if column < len(r) {
			if v, err := parseCell(r[column]); err == nil && v > maxVal {
				maxVal = v
			}
			if len(r[0]) > labelW {
				labelW = len(r[0])
			}
		}
	}
	marker := int(1.0 / maxVal * float64(width))
	for _, r := range t.Rows {
		if column >= len(r) {
			continue
		}
		v, err := parseCell(r[column])
		if err != nil {
			continue
		}
		n := int(v / maxVal * float64(width))
		if n < 1 && v > 0 {
			n = 1
		}
		bar := []byte(strings.Repeat("#", n) + strings.Repeat(" ", width-n+1))
		if marker >= 0 && marker < len(bar) {
			if bar[marker] == ' ' {
				bar[marker] = '|'
			}
		}
		fmt.Fprintf(&b, "%-*s  %s %8.3f\n", labelW, r[0], string(bar), v)
	}
	return b.String()
}

func parseCell(s string) (float64, error) {
	s = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(s), "%"))
	return strconv.ParseFloat(s, 64)
}
