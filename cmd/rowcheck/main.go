// Command rowcheck exhaustively model-checks the blocking MESI
// directory protocol for tiny configurations, driving the real
// coherence/cache/interconnect implementations through every legal
// interleaving of message deliveries and core operations. It exits 0
// when every configuration in the requested matrix exhausts its state
// space cleanly, 1 when an invariant violation was found (printing the
// shrunk witness spec, replayable with `rowtorture -replay`), and 2
// when a search was truncated by the state or wall-clock cap before
// exhausting the space.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"rowsim/internal/cli"
	"rowsim/internal/mcheck"
)

type matrixEntry struct {
	Name        string `json:"name"`
	WallNS      int64  `json:"wall_ns"`
	Visited     uint64 `json:"visited_states"`
	Transitions uint64 `json:"transitions"`
	MaxDepth    int    `json:"max_depth"`
	Truncated   bool   `json:"truncated"`
	Violation   string `json:"violation,omitempty"`
}

type report struct {
	Entries []matrixEntry `json:"entries"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := cli.NewFlagSet("rowcheck", stderr)
	var (
		cores     = fs.Int("cores", 2, "number of cores (1..4)")
		lines     = fs.Int("lines", 1, "number of cachelines (1..2)")
		banks     = fs.Int("banks", 1, "number of directory banks (1..2)")
		ops       = fs.Int("ops", 3, "per-core program length (generated workload)")
		mode      = fs.String("mode", "both", "issue discipline: eager, lazy or both")
		bug       = fs.String("bug", "", "seed a protocol bug: getx-as-gets, drop-unblock, drop-inv")
		maxStates = fs.Uint64("max-states", 0, "truncate each search after this many states (0: unlimited)")
		wall      = fs.Duration("wall", 0, "wall-clock cap across the whole matrix (0: none)")
		benchJSON = fs.String("bench-json", "", "write explored-state counts as a JSON report to this path")
		quiet     = fs.Bool("q", false, "print only failures")
	)
	if code, ok := cli.Parse(fs, args); !ok {
		return code
	}

	modes, err := pick(*mode, "eager", "lazy")
	if err != nil {
		fmt.Fprintln(stderr, "rowcheck:", err)
		return 2
	}

	var stop func() bool
	if *wall > 0 {
		deadline := time.Now().Add(*wall)
		stop = func() bool { return time.Now().After(deadline) }
	}

	rep := report{}
	worst := 0
	for _, mo := range modes {
		cfg := mcheck.Config{
			Cores: *cores, Lines: *lines, Banks: *banks, Ops: *ops, Lazy: mo == "lazy",
			Bug: *bug, MaxStates: *maxStates, StopAfter: stop,
		}
		name := fmt.Sprintf("rowcheck/%s/c%dl%db%d", mo, *cores, *lines, *banks)
		start := time.Now()
		res, err := mcheck.Check(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "rowcheck: %s: %v\n", name, err)
			return 2
		}
		ent := matrixEntry{
			Name:        name,
			WallNS:      time.Since(start).Nanoseconds(),
			Visited:     res.Stats.Visited,
			Transitions: res.Stats.Transitions,
			MaxDepth:    res.Stats.MaxDepth,
			Truncated:   res.Stats.Truncated,
		}
		switch {
		case res.Violation != nil:
			ent.Violation = res.Violation.Kind
			fmt.Fprintf(stdout, "FAIL %s: %s\n", name, res.Violation.Error())
			fmt.Fprintf(stdout, "  witness (%d choices): %v\n", len(res.Violation.Trace), res.Violation.Trace)
			fmt.Fprintf(stdout, "  replay: rowtorture -replay '%s'\n", res.Violation.Spec)
			worst = max(worst, 1)
		case res.Stats.Truncated:
			fmt.Fprintf(stdout, "TRUNCATED %s: %d states visited (cap hit before exhaustion)\n", name, res.Stats.Visited)
			worst = max(worst, 2)
		default:
			if !*quiet {
				fmt.Fprintf(stdout, "ok   %s: %d states, %d transitions, depth %d, %s — all invariants hold\n",
					name, res.Stats.Visited, res.Stats.Transitions, res.Stats.MaxDepth,
					time.Since(start).Round(time.Millisecond))
			}
		}
		rep.Entries = append(rep.Entries, ent)
	}

	if *benchJSON != "" {
		data, err := json.MarshalIndent(&rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*benchJSON, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "rowcheck: writing bench json:", err)
			return 2
		}
	}
	return worst
}

func pick(v, a, b string) ([]string, error) {
	switch v {
	case a:
		return []string{a}, nil
	case b:
		return []string{b}, nil
	case "both":
		return []string{a, b}, nil
	}
	return nil, fmt.Errorf("bad value %q (want %s, %s or both)", v, a, b)
}
