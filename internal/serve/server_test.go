package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"rowsim/internal/lifecycle"
	"rowsim/internal/sim"
)

// testServer opens a server on a fresh journal and, when run is true,
// starts its worker pool. Cleanup drains and waits for Run to return.
func testServer(t *testing.T, cfg Config, run bool) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Journal == "" {
		cfg.Journal = filepath.Join(t.TempDir(), "q.jsonl")
	}
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	if cfg.DrainGrace == 0 {
		cfg.DrainGrace = 30 * time.Second // tests always finish their cells
	}
	srv, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	if run {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- srv.Run(ctx) }()
		t.Cleanup(func() {
			cancel()
			if err := <-done; err != nil {
				t.Errorf("Run: %v", err)
			}
		})
	}
	return srv, hs
}

func submit(t *testing.T, hs *httptest.Server, tenant string, spec SweepSpec) (int, SweepView) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", hs.URL+"/v1/sweeps", bytes.NewReader(body))
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
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, v
}

func get(t *testing.T, hs *httptest.Server, tenant, path string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest("GET", hs.URL+path, nil)
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
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// waitDone polls a sweep until it reports done (tiny cells: this is
// tens of milliseconds, the deadline is pure headroom).
func waitDone(t *testing.T, hs *httptest.Server, tenant, id string) SweepView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, body := get(t, hs, tenant, "/v1/sweeps/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET sweep: %d %s", resp.StatusCode, body)
		}
		var v SweepView
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		if v.Status == "done" {
			return v
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("sweep did not finish in time")
	return SweepView{}
}

// TestServerEndToEnd: submit → compute → canonical results, with
// idempotent resubmission before and after completion.
func TestServerEndToEnd(t *testing.T) {
	_, hs := testServer(t, Config{}, true)
	spec := testSpec(t, 0.2, 0.8) // 4 tiny cells

	code, v := submit(t, hs, "", spec)
	if code != http.StatusAccepted {
		t.Fatalf("first submit = %d, want 202", code)
	}
	if v.Tenant != "default" || v.Cells != 4 {
		t.Fatalf("view = %+v", v)
	}
	done := waitDone(t, hs, "", v.ID)
	if done.OK != 4 || done.Failed != 0 || done.Results == "" {
		t.Fatalf("finished view = %+v, want 4 ok and a results href", done)
	}

	resp, body := get(t, hs, "", done.Results)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results: %d %s", resp.StatusCode, body)
	}
	var doc ResultsDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Cells) != 4 || doc.SpecHash != spec.Hash() {
		t.Fatalf("results doc = %+v", doc)
	}
	for _, c := range doc.Cells {
		if c.Status != "ok" || c.Result == nil || c.Result.Cycles == 0 {
			t.Errorf("cell %s: status=%s result=%v", c.Key, c.Status, c.Result)
		}
	}

	// Resubmit after completion: same sweep, 200, same results bytes.
	code2, v2 := submit(t, hs, "", spec)
	if code2 != http.StatusOK || v2.ID != v.ID {
		t.Fatalf("resubmit = %d id=%s, want 200 and %s", code2, v2.ID, v.ID)
	}
	_, body2 := get(t, hs, "", done.Results)
	if !bytes.Equal(body, body2) {
		t.Error("results document changed across reads")
	}
}

// TestServerResultsByteIdenticalAcrossRestart: finish a sweep, drain,
// reopen on the same journal, and the results document is byte-for-
// byte what the first process served — the in-process half of the
// chaos gate (the SIGKILL half lives in chaostest).
func TestServerResultsByteIdenticalAcrossRestart(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "q.jsonl")
	spec := testSpec(t, 0.3, 0.7)

	srv1, err := Open(Config{Journal: journal, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	hs1 := httptest.NewServer(srv1.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv1.Run(ctx) }()
	_, v := submit(t, hs1, "alice", spec)
	waitDone(t, hs1, "alice", v.ID)
	_, want := get(t, hs1, "alice", "/v1/sweeps/"+v.ID+"/results")
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	hs1.Close()

	srv2, err := Open(Config{Journal: journal, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	hs2 := httptest.NewServer(srv2.Handler())
	defer hs2.Close()
	defer srv2.q.close()
	resp, got := get(t, hs2, "alice", "/v1/sweeps/"+v.ID+"/results")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results after restart: %d %s", resp.StatusCode, got)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("results diverge across restart:\n--- before ---\n%s--- after ---\n%s", want, got)
	}
	st := srv2.Snapshot()
	if st.CellsResumed != 4 || st.CellsRequeued != 0 {
		t.Errorf("restart stats: resumed=%d requeued=%d, want 4 and 0", st.CellsResumed, st.CellsRequeued)
	}
}

// TestServerCrossTenantMemo: two tenants submit the identical spec;
// isolation gives them separate sweeps, the memo computes the shared
// cells once.
func TestServerCrossTenantMemo(t *testing.T) {
	srv, hs := testServer(t, Config{}, true)
	spec := testSpec(t, 0.4)

	_, va := submit(t, hs, "alice", spec)
	_, vb := submit(t, hs, "bob", spec)
	if va.ID == vb.ID {
		t.Fatal("tenants share a sweep ID")
	}
	waitDone(t, hs, "alice", va.ID)
	waitDone(t, hs, "bob", vb.ID)

	// Cross-tenant visibility stays off even though the compute is shared.
	resp, _ := get(t, hs, "bob", "/v1/sweeps/"+va.ID)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("bob sees alice's sweep: %d", resp.StatusCode)
	}

	st := srv.Snapshot()
	cells := uint64(len(spec.Cells()))
	if st.CellsExecuted != cells {
		t.Errorf("executed %d cells for two identical sweeps, want %d (memo dedup)", st.CellsExecuted, cells)
	}
	if st.CellsFromCache != cells {
		t.Errorf("served %d cells from cache, want %d", st.CellsFromCache, cells)
	}
	// And the two tenants' results agree cell-for-cell.
	_, ba := get(t, hs, "alice", "/v1/sweeps/"+va.ID+"/results")
	_, bb := get(t, hs, "bob", "/v1/sweeps/"+vb.ID+"/results")
	var da, db ResultsDoc
	if err := json.Unmarshal(ba, &da); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(bb, &db); err != nil {
		t.Fatal(err)
	}
	for i := range da.Cells {
		if da.Cells[i].Result.Cycles != db.Cells[i].Result.Cycles {
			t.Errorf("cell %s differs across tenants", da.Cells[i].Key)
		}
	}
}

// TestServerRestartMemoIsThisModels: a daemon restarted on its journal
// seeds the memo with the journaled results, so a second tenant's copy
// of a finished sweep executes nothing — unless the journal's meta says
// another model computed them. Then the first sweep keeps its journaled
// outcomes and the second tenant's cells execute.
func TestServerRestartMemoIsThisModels(t *testing.T) {
	for _, tc := range []struct {
		name  string
		model int
	}{{"same model", sim.ModelVersion}, {"other model", sim.ModelVersion + 1}} {
		model := tc.model
		t.Run(tc.name, func(t *testing.T) {
			journal := filepath.Join(t.TempDir(), "q.jsonl")
			spec := testSpec(t, 0.4)
			cells := uint64(len(spec.Cells()))

			srv1, err := Open(Config{Journal: journal, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			hs1 := httptest.NewServer(srv1.Handler())
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() { done <- srv1.Run(ctx) }()
			_, va := submit(t, hs1, "alice", spec)
			waitDone(t, hs1, "alice", va.ID)
			cancel()
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			hs1.Close()

			// Restamp the meta record; its spec hash does not cover the model.
			data, err := os.ReadFile(journal)
			if err != nil {
				t.Fatal(err)
			}
			head, rest, _ := bytes.Cut(data, []byte("\n"))
			var meta lifecycle.Record
			if err := json.Unmarshal(head, &meta); err != nil {
				t.Fatal(err)
			}
			meta.Model = model
			if head, err = json.Marshal(meta); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(journal, append(append(head, '\n'), rest...), 0o644); err != nil {
				t.Fatal(err)
			}

			srv2, hs2 := testServer(t, Config{Journal: journal}, true)
			if v := waitDone(t, hs2, "alice", va.ID); v.Status != "done" {
				t.Fatalf("alice's sweep after restart: %+v", v)
			}
			_, vb := submit(t, hs2, "bob", spec)
			waitDone(t, hs2, "bob", vb.ID)
			st := srv2.Snapshot()
			wantRun := uint64(0)
			if model != sim.ModelVersion {
				wantRun = cells
			}
			if st.CellsResumed != cells || st.CellsExecuted != wantRun || st.CellsFromCache != cells-wantRun {
				t.Errorf("journal of model %d: resumed %d, executed %d, from memo %d; want %d, %d, %d",
					model, st.CellsResumed, st.CellsExecuted, st.CellsFromCache, cells, wantRun, cells-wantRun)
			}
		})
	}
}

// TestServerAdmissionControl: a full queue sheds with 429 and a
// Retry-After header; already-admitted work is unaffected. Workers
// are deliberately not running, so the queue cannot drain under us.
func TestServerAdmissionControl(t *testing.T) {
	srv, hs := testServer(t, Config{MaxQueue: 3}, false)
	defer srv.q.close()

	code, v := submit(t, hs, "", testSpec(t, 0.5)) // 2 cells: fits
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}
	body, _ := json.Marshal(testSpec(t, 0.6))
	resp, err := http.Post(hs.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	// Shedding does not disturb admitted sweeps or idempotent re-reads.
	code2, v2 := submit(t, hs, "", testSpec(t, 0.5))
	if code2 != http.StatusOK || v2.ID != v.ID {
		t.Errorf("resubmit under load = %d, want 200 for the admitted sweep", code2)
	}
	st := srv.Snapshot()
	if st.RejectedLoad != 1 {
		t.Errorf("rejected_429 = %d, want 1", st.RejectedLoad)
	}
}

// TestServerPerTenantBound: one tenant cannot fill the shared queue —
// its own bound trips first and other tenants still get in.
func TestServerPerTenantBound(t *testing.T) {
	srv, hs := testServer(t, Config{MaxQueue: 100, TenantQueue: 3}, false)
	defer srv.q.close()

	if code, _ := submit(t, hs, "alice", testSpec(t, 0.5)); code != http.StatusAccepted {
		t.Fatalf("alice's first submit rejected: %d", code)
	}
	if code, _ := submit(t, hs, "alice", testSpec(t, 0.6)); code != http.StatusTooManyRequests {
		t.Fatal("alice exceeded her fair share without a 429")
	}
	if code, _ := submit(t, hs, "bob", testSpec(t, 0.6)); code != http.StatusAccepted {
		t.Fatal("bob was shed because of alice's backlog")
	}
}

// TestServerValidation: malformed requests get 4xx, not queue slots.
func TestServerValidation(t *testing.T) {
	srv, hs := testServer(t, Config{}, false)
	defer srv.q.close()

	post := func(tenant, body string) int {
		req, err := http.NewRequest("POST", hs.URL+"/v1/sweeps", bytes.NewReader([]byte(body)))
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
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("", `{"values":[0.5],"workload":"nope"}`); code != http.StatusBadRequest {
		t.Errorf("bad workload = %d, want 400", code)
	}
	if code := post("", `{"values":[0.5],"surprise":1}`); code != http.StatusBadRequest {
		t.Errorf("unknown field = %d, want 400", code)
	}
	if code := post("", `{`); code != http.StatusBadRequest {
		t.Errorf("truncated JSON = %d, want 400", code)
	}
	if code := post("NOT/A/TENANT", `{"values":[0.5]}`); code != http.StatusBadRequest {
		t.Errorf("invalid tenant = %d, want 400", code)
	}
	if resp, _ := get(t, hs, "", "/v1/sweeps/sw-missing"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing sweep = %d, want 404", resp.StatusCode)
	}
}

// TestServerResultsNotFinal: results are refused with 409 until every
// cell is terminal.
func TestServerResultsNotFinal(t *testing.T) {
	srv, hs := testServer(t, Config{}, false) // no workers: stays queued
	defer srv.q.close()
	_, v := submit(t, hs, "", testSpec(t, 0.5))
	resp, _ := get(t, hs, "", "/v1/sweeps/"+v.ID+"/results")
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("results of a queued sweep = %d, want 409", resp.StatusCode)
	}
}

// TestServerReadyzLifecycle: starting → ready → draining, with
// healthz 200 throughout and submissions refused while draining.
func TestServerReadyzLifecycle(t *testing.T) {
	srv, hs := testServer(t, Config{DrainGrace: time.Millisecond}, false)

	if resp, _ := get(t, hs, "", "/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz before Run = %d, want 503", resp.StatusCode)
	}
	if resp, _ := get(t, hs, "", "/healthz"); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d, want 200", resp.StatusCode)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Run(ctx) }()
	waitFor(t, func() bool {
		resp, _ := get(t, hs, "", "/readyz")
		return resp.StatusCode == http.StatusOK
	}, "readyz never went 200 after Run")

	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if resp, _ := get(t, hs, "", "/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Error("readyz after drain is not 503")
	}
	if code, _ := submit(t, hs, "", testSpec(t, 0.5)); code != http.StatusServiceUnavailable {
		t.Errorf("submit while draining = %d, want 503", code)
	}
	if resp, _ := get(t, hs, "", "/healthz"); resp.StatusCode != http.StatusOK {
		t.Error("healthz must stay 200 during drain (alive, just leaving)")
	}
	st := srv.Snapshot()
	if !st.Draining || st.RejectedDrain != 1 {
		t.Errorf("stats after drain: draining=%v rejected_503=%d", st.Draining, st.RejectedDrain)
	}
}

// TestServerStats: the stats document reflects the work done.
func TestServerStats(t *testing.T) {
	srv, hs := testServer(t, Config{}, true)
	spec := testSpec(t, 0.2)
	_, v := submit(t, hs, "", spec)
	waitDone(t, hs, "", v.ID)

	resp, body := get(t, hs, "", "/v1/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d", resp.StatusCode)
	}
	var st Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	cells := uint64(len(spec.Cells()))
	if st.SweepsAccepted != 1 || st.OutcomeOK != cells || st.QueueDepth != 0 {
		t.Errorf("stats = accepted:%d ok:%d depth:%d", st.SweepsAccepted, st.OutcomeOK, st.QueueDepth)
	}
	if len(st.Workers) != srv.cfg.Workers || st.Journal == "" || st.CodeRev == "" ||
		!bytes.Contains(body, []byte(`"model_version"`)) || st.ModelVersion != sim.ModelVersion {
		t.Errorf("stats identity fields: %+v", st)
	}
}

// TestServerSharesTraceSets: the policies of one value share a trace
// set — generated and warmed once however the two workers race for it —
// the counters say so in /v1/stats, and the cache holds workers+1 images.
func TestServerSharesTraceSets(t *testing.T) {
	_, hs := testServer(t, Config{}, true) // 2 workers: room for 3 images
	stats := func() (st Stats) {
		t.Helper()
		_, body := get(t, hs, "", "/v1/stats")
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	_, v := submit(t, hs, "", testSpec(t, 0.2, 0.8))
	waitDone(t, hs, "", v.ID)
	if st := stats(); st.SetupGenerated != 2 || st.SetupWarmed != 2 || st.SetupReused != 2 || st.SetupEvicted != 0 || st.CellsExecuted != 4 {
		t.Fatalf("2 values x 2 policies: generated %d, warmed %d, reused %d, evicted %d, executed %d; want 2, 2, 2, 0, 4",
			st.SetupGenerated, st.SetupWarmed, st.SetupReused, st.SetupEvicted, st.CellsExecuted)
	}
	_, v = submit(t, hs, "", testSpec(t, 0.1, 0.3, 0.5, 0.7, 0.9))
	waitDone(t, hs, "", v.ID)
	st := stats()
	if st.SetupWarmed < 7 || st.SetupWarmed+st.SetupReused != st.CellsExecuted || st.SetupEvicted != st.SetupWarmed-3 {
		t.Fatalf("after 5 more values: warmed %d, reused %d, evicted %d, executed %d; want >= 7 warmed, every executed cell counted once, all but 3 images evicted",
			st.SetupWarmed, st.SetupReused, st.SetupEvicted, st.CellsExecuted)
	}
}

func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal(msg)
}

// TestServerListSweeps: GET /v1/sweeps lists the caller's sweeps in
// submission order and no other tenant's, a tenant with none gets an
// empty list rather than null, and a malformed tenant is a 400.
func TestServerListSweeps(t *testing.T) {
	_, hs := testServer(t, Config{}, false)
	_, a1 := submit(t, hs, "alice", testSpec(t, 0.2))
	_, b1 := submit(t, hs, "bob", testSpec(t, 0.2))
	_, a2 := submit(t, hs, "alice", testSpec(t, 0.8))
	list := func(tenant string) []string {
		t.Helper()
		resp, body := get(t, hs, tenant, "/v1/sweeps")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("list for %q: %d %s", tenant, resp.StatusCode, body)
		}
		var doc struct{ Sweeps []SweepView }
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatal(err)
		}
		if doc.Sweeps == nil {
			t.Fatalf("list for %q has no sweeps array: %s", tenant, body)
		}
		var ids []string
		for _, v := range doc.Sweeps {
			if v.Tenant != tenant {
				t.Errorf("%q's list holds %q's sweep %s", tenant, v.Tenant, v.ID)
			}
			ids = append(ids, v.ID)
		}
		return ids
	}
	if got, want := list("alice"), []string{a1.ID, a2.ID}; !reflect.DeepEqual(got, want) {
		t.Errorf("alice lists %v, want %v", got, want)
	}
	if got, want := list("bob"), []string{b1.ID}; !reflect.DeepEqual(got, want) {
		t.Errorf("bob lists %v, want %v", got, want)
	}
	if got := list("carol"); len(got) != 0 {
		t.Errorf("carol lists %v, want none", got)
	}
	if resp, _ := get(t, hs, "Not A Tenant", "/v1/sweeps"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("list with a malformed tenant = %d, want 400", resp.StatusCode)
	}
}
