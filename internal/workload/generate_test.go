package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"runtime"
	"testing"

	"rowsim/internal/trace"
)

// programsHash is the first 8 bytes of the SHA-256 of progs in the
// trace file format, which writes every field of every instruction.
func programsHash(t *testing.T, progs []trace.Program) string {
	t.Helper()
	h := sha256.New()
	if err := trace.WritePrograms(h, progs); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// TestGeneratePinned pins every registered workload's programs at 3
// cores × 2,000 instructions, seed 1, to the hashes of the sequential
// generator they were taken from: however Generate spreads the cores
// over workers, each core's trace is the one its own RNG stream made.
func TestGeneratePinned(t *testing.T) {
	want := map[string]string{
		"barnes":        "6c7c598cc452a895",
		"barrier":       "6e75f0fac5235e7c",
		"blackscholes":  "1c5894dca9dea9bb",
		"bodytrack":     "dd27de1a802a040f",
		"canneal":       "3e046d97246cf75d",
		"cholesky":      "1203fd87599bfee6",
		"cq":            "083c7d916a9fa700",
		"dedup":         "7b0ac973366e6071",
		"ferret":        "9d2dc27a5159205e",
		"fluidanimate":  "77814d58153424a2",
		"fmm":           "c54a043b75dfc9c6",
		"freqmine":      "5de3cf9b8228db89",
		"lu":            "209e14ae2ae4a67f",
		"ocean":         "194892fb34b71ad8",
		"pc":            "3d4c3786d269f277",
		"radiosity":     "1287e0d60e50d338",
		"radix":         "81e16c56682c978a",
		"raytrace":      "0978cd4bdc1b5ba4",
		"sps":           "82080c314914d2f2",
		"streamcluster": "617a5581fb405454",
		"swaptions":     "524082136fd232ee",
		"tas":           "ba88778e224ce5a2",
		"tatp":          "4e4f922939a2a5ac",
		"ticket":        "d14a34171eede302",
		"tpcc":          "4214f98b51c0b9a4",
		"volrend":       "35ddbe92c7f6d853",
		"water":         "90ef23865a55698d",
		"x264":          "afd902491882fe21",
	}
	for _, name := range Names() {
		got := programsHash(t, Generate(MustGet(name), 3, 2000, 1))
		if got != want[name] {
			t.Errorf("%s: programs hash %s, want %s", name, got, want[name])
		}
	}
}

// TestGenerateSameForAnyProcs: one worker and four make deeply equal
// programs for every registered workload, with more cores than
// workers so that workers take several cores each.
func TestGenerateSameForAnyProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, name := range Names() {
		p := MustGet(name)
		runtime.GOMAXPROCS(1)
		one := Generate(p, 9, 2000, 7)
		runtime.GOMAXPROCS(4)
		four := Generate(p, 9, 2000, 7)
		if !reflect.DeepEqual(one, four) {
			t.Errorf("%s: programs generated with GOMAXPROCS 1 and 4 differ", name)
		}
	}
}
