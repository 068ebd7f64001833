package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rowsim/internal/checkpoint"
)

func del(t *testing.T, hs *httptest.Server, tenant, id string) (*http.Response, SweepView) {
	t.Helper()
	req, err := http.NewRequest("DELETE", hs.URL+"/v1/sweeps/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v SweepView
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
	}
	return resp, v
}

// TestServerDeleteSweep: DELETE cancels a queued sweep's pending cells,
// is idempotent, is tenant-scoped, and survives a restart — the
// journaled cancel marker replays, so the cells are not re-enqueued.
func TestServerDeleteSweep(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "q.jsonl")
	srv, hs := testServer(t, Config{Journal: journal}, false) // no workers: cells stay pending

	_, v := submit(t, hs, "alice", testSpec(t, 0.2, 0.8)) // 4 cells

	if resp, _ := del(t, hs, "alice", "sw-missing"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("DELETE of a missing sweep = %d, want 404", resp.StatusCode)
	}
	if resp, _ := del(t, hs, "bob", v.ID); resp.StatusCode != http.StatusNotFound {
		t.Errorf("cross-tenant DELETE = %d, want 404", resp.StatusCode)
	}

	resp, dv := del(t, hs, "alice", v.ID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE = %d, want 200", resp.StatusCode)
	}
	if dv.Status != "canceled" || dv.Canceled != 4 || dv.Pending != 0 {
		t.Fatalf("view after DELETE = %+v, want 4 canceled", dv)
	}
	if st := srv.Snapshot(); st.QueueDepth != 0 || st.SweepsCanceled != 1 {
		t.Errorf("stats after DELETE: depth=%d canceled=%d", st.QueueDepth, st.SweepsCanceled)
	}

	// Idempotent: a second DELETE succeeds without double-counting.
	resp2, dv2 := del(t, hs, "alice", v.ID)
	if resp2.StatusCode != http.StatusOK || dv2.Status != "canceled" {
		t.Fatalf("second DELETE = %d %+v, want 200 canceled", resp2.StatusCode, dv2)
	}
	if st := srv.Snapshot(); st.SweepsCanceled != 1 {
		t.Errorf("sweeps_canceled = %d after idempotent re-delete, want 1", st.SweepsCanceled)
	}

	// Results of a canceled sweep are never final.
	if r, _ := get(t, hs, "alice", "/v1/sweeps/"+v.ID+"/results"); r.StatusCode != http.StatusConflict {
		t.Errorf("results of a canceled sweep = %d, want 409", r.StatusCode)
	}

	// Restart on the same journal: the cancel marker replays — the
	// sweep stays canceled and none of its cells come back as pending.
	if err := srv.q.close(); err != nil {
		t.Fatal(err)
	}
	srv2, err := Open(Config{Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.q.close()
	hs2 := httptest.NewServer(srv2.Handler())
	defer hs2.Close()
	r, body := get(t, hs2, "alice", "/v1/sweeps/"+v.ID)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("GET after restart: %d %s", r.StatusCode, body)
	}
	var rv SweepView
	if err := json.Unmarshal(body, &rv); err != nil {
		t.Fatal(err)
	}
	if rv.Status != "canceled" || rv.Canceled != 4 || rv.Pending != 0 {
		t.Errorf("view after restart = %+v, want canceled to persist", rv)
	}
	if st := srv2.Snapshot(); st.CellsRequeued != 0 {
		t.Errorf("requeued %d cells of a deleted sweep, want 0", st.CellsRequeued)
	}
}

// TestServerDeleteDoneSweep: a finished sweep refuses deletion with
// 409 — its results are final and stay retrievable.
func TestServerDeleteDoneSweep(t *testing.T) {
	_, hs := testServer(t, Config{}, true)
	_, v := submit(t, hs, "", testSpec(t, 0.5))
	waitDone(t, hs, "", v.ID)
	resp, _ := del(t, hs, "", v.ID)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("DELETE of a done sweep = %d, want 409", resp.StatusCode)
	}
	if r, _ := get(t, hs, "", "/v1/sweeps/"+v.ID+"/results"); r.StatusCode != http.StatusOK {
		t.Errorf("results after refused DELETE = %d, want 200", r.StatusCode)
	}
}

// TestServerDeleteRunningSweep: deleting a sweep with in-flight cells
// cancels their context; the workers settle them as canceled and the
// sweep converges to "canceled" without waiting for the cells to run
// to completion.
func TestServerDeleteRunningSweep(t *testing.T) {
	_, hs := testServer(t, Config{Workers: 2}, true)
	// A big-instruction spec so cells are still running when the DELETE
	// lands (and if they happen to finish first, the DELETE still
	// observes a consistent canceled-or-conflict outcome).
	spec := SweepSpec{Values: []float64{0.1, 0.5, 0.9}, Policies: []string{"eager", "lazy", "row"}, Cores: 4, Instrs: 20000}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	_, v := submit(t, hs, "", spec)
	resp, _ := del(t, hs, "", v.ID)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusConflict {
		t.Fatalf("DELETE of a running sweep = %d, want 200 (or 409 if it raced to done)", resp.StatusCode)
	}
	if resp.StatusCode == http.StatusConflict {
		return // the sweep finished before the DELETE landed
	}
	waitFor(t, func() bool {
		r, body := get(t, hs, "", "/v1/sweeps/"+v.ID)
		if r.StatusCode != http.StatusOK {
			t.Fatalf("GET: %d", r.StatusCode)
		}
		var sv SweepView
		if err := json.Unmarshal(body, &sv); err != nil {
			t.Fatal(err)
		}
		return sv.Status == "canceled" && sv.Running == 0 && sv.Pending == 0
	}, "deleted sweep never converged to canceled")
}

// TestServerCompactsJournalOnDrain: a graceful drain rewrites the
// journal to its minimal form — one record per cell instead of the
// full transition history — and the compacted journal replays into
// byte-identical results.
func TestServerCompactsJournalOnDrain(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "q.jsonl")
	spec := testSpec(t, 0.3, 0.7) // 4 cells

	srv1, err := Open(Config{Journal: journal, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	hs1 := httptest.NewServer(srv1.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv1.Run(ctx) }()
	_, v := submit(t, hs1, "", spec)
	waitDone(t, hs1, "", v.ID)
	_, want := get(t, hs1, "", "/v1/sweeps/"+v.ID+"/results")
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	hs1.Close()

	// 4 cells × (running + terminal) + meta + sweep = 10 lines before
	// compaction; after, exactly meta + sweep + one line per cell.
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(string(data), "\n")
	if lines != 2+len(spec.Cells()) {
		t.Errorf("compacted journal has %d lines, want %d", lines, 2+len(spec.Cells()))
	}

	// The compacted journal replays into the same queue: results are
	// byte-identical and nothing is re-run.
	srv2, err := Open(Config{Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.q.close()
	hs2 := httptest.NewServer(srv2.Handler())
	defer hs2.Close()
	r, got := get(t, hs2, "", "/v1/sweeps/"+v.ID+"/results")
	if r.StatusCode != http.StatusOK {
		t.Fatalf("results after compaction: %d %s", r.StatusCode, got)
	}
	if string(want) != string(got) {
		t.Errorf("results diverge across compact+restart:\n--- before ---\n%s--- after ---\n%s", want, got)
	}
	if st := srv2.Snapshot(); st.CellsResumed != 4 || st.CellsRequeued != 0 {
		t.Errorf("after compacted replay: resumed=%d requeued=%d, want 4 and 0", st.CellsResumed, st.CellsRequeued)
	}
}

// TestServerCheckpointLifecycle: with checkpointing on, cells run to
// completion and leave no checkpoint files behind (terminal cells
// clean up); a deleted sweep's checkpoints are removed too.
func TestServerCheckpointLifecycle(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "q.jsonl")
	srv, hs := testServer(t, Config{Journal: journal, CheckpointEvery: 256}, true)

	_, v := submit(t, hs, "", testSpec(t, 0.4))
	waitDone(t, hs, "", v.ID)
	waitFor(t, func() bool { return ckptFiles(t, srv.cfg.CheckpointDir) == 0 }, "checkpoints of terminal cells were not removed")

	// A deleted sweep drops its cells' checkpoints as well.
	_, v2 := submit(t, hs, "", testSpec(t, 0.6))
	resp, _ := del(t, hs, "", v2.ID)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusConflict {
		t.Fatalf("DELETE = %d", resp.StatusCode)
	}
	waitFor(t, func() bool { return ckptFiles(t, srv.cfg.CheckpointDir) == 0 }, "checkpoints of a deleted sweep were not removed")
}

// ckptFiles counts the files in a checkpoint directory, which does not
// exist before the first save.
func ckptFiles(t *testing.T, dir string) int {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	return len(ents)
}

// TestServerDeleteCheckpointedRunningSweep: a DELETE that lands while a
// cell is running and checkpointing leaves that cell's files to it, so
// no save of the cell fails on a file removed under it: the cell
// settles as canceled, not failed, and then removes its checkpoints.
// The checkpoint directory ends empty.
func TestServerDeleteCheckpointedRunningSweep(t *testing.T) {
	srv, hs := testServer(t, Config{Workers: 1, CheckpointEvery: 256}, true)
	spec := SweepSpec{Values: []float64{0.1, 0.9}, Policies: []string{"eager"}, Cores: 4, Instrs: 200000}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	_, v := submit(t, hs, "", spec)
	waitFor(t, func() bool { return ckptFiles(t, srv.cfg.CheckpointDir) > 0 }, "the running cell never wrote a checkpoint")
	if resp, _ := del(t, hs, "", v.ID); resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE of a running sweep = %d, want 200", resp.StatusCode)
	}
	waitFor(t, func() bool {
		_, body := get(t, hs, "", "/v1/sweeps/"+v.ID)
		var sv SweepView
		if err := json.Unmarshal(body, &sv); err != nil {
			t.Fatal(err)
		}
		if sv.Failed > 0 {
			t.Fatalf("a cell of the deleted sweep failed instead of canceling: %+v", sv)
		}
		return sv.Status == "canceled" && sv.Running == 0 && sv.Canceled == 2
	}, "deleted sweep never settled both cells as canceled")
	if n := ckptFiles(t, srv.cfg.CheckpointDir); n != 0 {
		t.Fatalf("checkpoint dir holds %d file(s) after the deleted sweep settled, want none", n)
	}
}

// TestServerRecoveryRemovesStrandedCheckpoints: a daemon killed after
// journaling a cell's end but before removing its checkpoint strands
// the files. The next daemon on the journal removes them at start, so
// the checkpoint directory of a finished queue drains to empty.
func TestServerRecoveryRemovesStrandedCheckpoints(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "q.jsonl")
	cfg := Config{Journal: journal, CheckpointEvery: 256}
	srv, hs := testServer(t, cfg, true)
	_, v := submit(t, hs, "", testSpec(t, 0.4))
	waitDone(t, hs, "", v.ID)
	sw, _ := srv.q.get("default", v.ID)
	var stranded []string
	for _, c := range sw.cells {
		p := srv.ckptPath(c.ckey)
		stranded = append(stranded, p, p+checkpoint.PrevSuffix)
	}
	for _, p := range stranded {
		if err := os.WriteFile(p, []byte("stranded"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	again, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer again.q.close()
	for _, p := range stranded {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("%s survived recovery (stat: %v)", filepath.Base(p), err)
		}
	}
}

// TestServerDeleteSparesSharedCheckpoint: a checkpoint is named by its
// cell's content, so two tenants' identical cells share one. Deleting
// bob's sweep, whose copy of the cell is still pending, must leave the
// files of alice's running copy alone: her cell finishes ok.
func TestServerDeleteSparesSharedCheckpoint(t *testing.T) {
	srv, hs := testServer(t, Config{Workers: 1, CheckpointEvery: 256}, true)
	spec := SweepSpec{Values: []float64{0.5}, Policies: []string{"eager"}, Cores: 4, Instrs: 30000}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	_, va := submit(t, hs, "alice", spec)
	waitFor(t, func() bool { return ckptFiles(t, srv.cfg.CheckpointDir) > 0 }, "alice's cell never wrote a checkpoint")
	_, vb := submit(t, hs, "bob", spec)
	if resp, _ := del(t, hs, "bob", vb.ID); resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE of bob's queued sweep = %d, want 200", resp.StatusCode)
	}
	if v := waitDone(t, hs, "alice", va.ID); v.OK != 1 {
		t.Fatalf("alice's sweep ended %+v; want its one cell ok", v)
	}
}
