package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"rowsim/internal/checkpoint"
	"rowsim/internal/experiments"
	"rowsim/internal/lifecycle"
	"rowsim/internal/sim"
	"rowsim/internal/workload"
)

// TestFrontEndsAgree runs one sweep the way rowsweep does — a spec
// built from flag strings, Resolve, Jobs, Supervisor.Sweep over
// SweepSpec.Run, with a non-canonically spelled value — and the way a
// client of the daemon does — the JSON spec POSTed to an in-process
// Server — and requires the same cell keys,
// the same content keys (hence the same checkpoint files and memo
// entries) and the same sim.Result for every cell: the result of the
// cell generated, built by plain sim.New and warmed on its own, which
// neither front end does (both share trace sets through a set-up cache).
func TestFrontEndsAgree(t *testing.T) {
	// The CLI front end: rowsweep -workload pc -param hotlines
	// -values "1, 4.0" -cores 2 -instrs 300 -seed 0.
	cli := SweepSpec{Workload: "pc", Param: "hotlines", Cores: 2, Instrs: 300}
	for _, raw := range strings.Split("1, 4.0", ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(raw), 64)
		if err != nil {
			t.Fatal(err)
		}
		cli.Values = append(cli.Values, v)
	}
	if err := cli.Resolve(); err != nil {
		t.Fatal(err)
	}
	ckptDir := t.TempDir()
	cells, jobs, err := cli.Jobs(ckptDir)
	if err != nil {
		t.Fatal(err)
	}
	setup := experiments.NewSetup(2)
	outs := lifecycle.New(lifecycle.Config{}).Sweep(context.Background(), nil, 2, jobs, func(ctx context.Context, i int) (sim.Result, error) {
		return cli.Run(ctx, cells[i], setup, ckptDir, 256, nil)
	}, nil)
	if n, want := setup.Stats(), (experiments.SetupStats{Generated: 2, Warmed: 2, Reused: 4}); n != want {
		t.Errorf("CLI sweep of 2 values x 3 policies: %v, want %v", n, want)
	}

	// The daemon front end.
	srv, hs := testServer(t, Config{Journal: filepath.Join(t.TempDir(), "q.jsonl"), CheckpointEvery: 256}, true)
	var posted SweepSpec
	if err := json.Unmarshal([]byte(`{"workload":"pc","param":"hotlines","values":[1,4],"cores":2,"instrs":300}`), &posted); err != nil {
		t.Fatal(err)
	}
	code, v := submit(t, hs, "", posted)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	done := waitDone(t, hs, "", v.ID)
	_, body := get(t, hs, "", done.Results)
	var doc ResultsDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	sw, ok := srv.q.get("default", v.ID)
	if !ok || len(doc.Cells) != len(cells) || len(sw.cells) != len(cells) {
		t.Fatalf("daemon has %d cells (%d in the results), the CLI %d", len(sw.cells), len(doc.Cells), len(cells))
	}

	for i, c := range cells {
		served := doc.Cells[i]
		if c.Key != served.Key {
			t.Errorf("cell %d: CLI key %q, daemon key %q", i, c.Key, served.Key)
		}
		if want := checkpoint.Path(ckptDir, sw.cells[i].ckey); jobs[i].Checkpoint != want {
			t.Errorf("cell %s: CLI checkpoint %s, the daemon's content key names %s", c.Key, jobs[i].Checkpoint, want)
		}
		if outs[i].Status != lifecycle.StatusOK || served.Result == nil {
			t.Fatalf("cell %s: CLI %+v, daemon %+v", c.Key, outs[i], served)
		}
		wp, err := cli.WorkloadParams(c)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := sim.New(cli.Config(c), workload.Generate(wp, cli.Cores, cli.Instrs, cli.Seed), sim.WithWarmFilter(workload.WarmFilter(wp)))
		if err != nil {
			t.Fatal(err)
		}
		want := sys.MustRun().SchedNormalized()
		if got := outs[i].Result.SchedNormalized(); got != want {
			t.Errorf("cell %s: the CLI's result differs from a plainly built cell's\nCLI   %+v\nplain %+v", c.Key, got, want)
		}
		if got := served.Result.SchedNormalized(); got != want {
			t.Errorf("cell %s: the daemon's result differs from a plainly built cell's\ndaemon %+v\nplain  %+v", c.Key, got, want)
		}
	}
	if cells[3].Key != "hotlines=4/eager" {
		t.Errorf("value spelled 4.0 is keyed %q, want the canonical hotlines=4/eager", cells[3].Key)
	}
}
