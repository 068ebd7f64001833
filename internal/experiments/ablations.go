package experiments

import (
	"fmt"

	"rowsim/internal/config"
	"rowsim/internal/stats"
)

// AblationEntries evaluates the predictor-size trade-off Section IV-D
// discusses: with few entries, contended and non-contended atomics
// alias and the wrong policy is applied (a single shared entry
// degrades to roughly eager performance on average).
func AblationEntries(r *Runner) *stats.Table {
	var vs []Variant
	var headers []string
	for _, n := range []int{1, 4, 16, 64, 256} {
		v := VarDirUD
		v.Name, v.PredEntries = fmt.Sprintf("RW+Dir_U/D(%de)", n), n
		vs, headers = append(vs, v), append(headers, fmt.Sprintf("%d-entries", n))
	}
	return normTable(r, "Ablation — RoW (RW+Dir_U/D) predictor table size, normalized to eager", false, vs, headers)
}

// AblationUpdate compares the counter-update rules: UpDown, Saturate
// on Contention, and the +2/-1 rule the paper evaluated and
// discarded.
func AblationUpdate(r *Runner) *stats.Table {
	var vs []Variant
	var headers []string
	for _, k := range []config.PredictorKind{config.PredUpDown, config.PredSaturate, config.PredTwoUpOneDown} {
		vs, headers = append(vs, rowVariant("RW+Dir_"+k.String(), config.DetectRWDir, k, false)), append(headers, k.String())
	}
	return normTable(r, "Ablation — predictor update rule (RW+Dir), normalized to eager", false, vs, headers)
}

// AblationAQSize sweeps the Atomic Queue depth: too few entries limit
// the number of in-flight atomics (dispatch stalls), while the
// paper's 16 entries are enough for every workload.
func AblationAQSize(r *Runner) *stats.Table {
	var vs []Variant
	var headers []string
	for _, n := range []int{4, 8, 16, 32} {
		v := VarDirUD
		v.Name, v.AQSize = fmt.Sprintf("RW+Dir_U/D(aq%d)", n), n
		vs, headers = append(vs, v), append(headers, fmt.Sprintf("AQ=%d", n))
	}
	return normTable(r, "Ablation — Atomic Queue depth under RoW (RW+Dir_U/D), normalized to eager", false, vs, headers)
}
