package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"rowsim/internal/experiments"
	"rowsim/internal/lifecycle"
	"rowsim/internal/serve"
	"rowsim/internal/sim"
	"rowsim/internal/workload"
)

// serveBench is serve-sweeps: an in-process rowserve (2 workers,
// journal in a temp dir, checkpointing off) behind a real HTTP
// listener. A unit is one round: two tenant clients, each a closed
// loop submitting perTenant sweeps one after another and polling each
// to done. Every second sweep of the second tenant repeats a spec the
// first tenant ran in the previous round, so a quarter of all cells
// are memo hits and which ones is fixed by the seed, not by timing.
type serveBench struct {
	seed          uint64
	cores, instrs int
	perTenant     int

	tmp    string
	srv    *serve.Server
	ts     *httptest.Server
	cancel context.CancelFunc
	runErr chan error

	round int
	// digest0 is the warm-up round's digest. Later rounds use fresh
	// spec seeds (or the memo would serve everything), so their
	// Results differ round to round by design; the workload's
	// sim_digest is therefore that of round 0, the one round whose
	// specs depend on the seed alone, and later rounds are held to the
	// repeated-spec check in unit and the direct reruns in verify.
	digest0 string
	prev    []sweepRun // tenant 0's sweeps of the previous round
	last    [2][]sweepRun
}

var tenants = [2]string{"perf-a", "perf-b"}

const (
	serveWorkers = 2 // = nproc on the reference host; never more
	pollEvery    = 2 * time.Millisecond
	sweepTimeout = 60 * time.Second
)

// sweepRun is one sweep as its client saw it.
type sweepRun struct {
	spec      serve.SweepSpec
	doc       serve.ResultsDoc
	latency   time.Duration // POST sent → done observed
	submit    time.Duration // POST round trip
	fetch     time.Duration // GET results round trip
	err       error
	completed bool
}

func (b *serveBench) setup() error {
	tmp, err := os.MkdirTemp("", "rowperf-serve-")
	if err != nil {
		return err
	}
	b.tmp = tmp
	b.srv, err = serve.Open(serve.Config{Journal: filepath.Join(tmp, "queue.jsonl"), Workers: serveWorkers})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	b.cancel = cancel
	b.runErr = make(chan error, 1)
	go func() { b.runErr <- b.srv.Run(ctx) }()
	b.ts = httptest.NewServer(b.srv.Handler())

	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := b.ts.Client().Get(b.ts.URL + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon never became ready (last: %v)", err)
		}
		time.Sleep(pollEvery)
	}
	return warmUp(b)
}

// spec derives sweep j of tenant t in round r from the seed.
func (b *serveBench) spec(r, t, j int) serve.SweepSpec {
	if t == 1 && j%2 == 1 && j < len(b.prev) {
		return b.prev[j].spec
	}
	s := b.seed*1_000_003 + uint64(r)*10_007 + uint64(t)*1_009 + uint64(j) + 1
	if s == 0 {
		s = 1
	}
	return serve.SweepSpec{
		Workload: "sps", Param: "sharedfrac", Values: []float64{0.2, 0.5, 0.8},
		Cores: b.cores, Instrs: b.instrs, Seed: s,
	}
}

func (b *serveBench) unit(tr *tracer) unitOut {
	var out unitOut
	start := time.Now()
	before := b.srv.Snapshot()
	root := tr.begin(noSpan, "unit")
	r := b.round
	b.round++

	var runs [2][]sweepRun
	var wg sync.WaitGroup
	for t := range tenants {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			for j := 0; j < b.perTenant; j++ {
				runs[t] = append(runs[t], b.sweep(tr, root, tenants[t], b.spec(r, t, j)))
			}
		}(t)
	}
	wg.Wait()
	wall := time.Since(start)
	tr.end(root)
	after := b.srv.Snapshot()

	var dg digester
	var submits, fetches []float64
	for t := range runs {
		for j, run := range runs[t] {
			ok := run.err == nil && run.completed
			for _, c := range run.doc.Cells {
				out.expect(c.Status == string(lifecycle.StatusOK) && c.Result != nil, "tenant %s sweep %d cell %s: %s %s", tenants[t], j, c.Key, c.Status, c.Error)
				out.cells++
				if c.Result != nil {
					out.instrs += c.Result.Committed
					out.cycles += c.Result.Cycles
					dg.add(*c.Result)
				}
			}
			out.expect(ok && len(run.doc.Cells) == len(run.spec.Values)*len(serve.DefaultPolicies),
				"tenant %s sweep %d: done=%v cells=%d err=%v", tenants[t], j, run.completed, len(run.doc.Cells), run.err)
			if t == 1 && j%2 == 1 && j < len(b.prev) {
				out.expect(sameCells(run.doc, b.prev[j].doc), "tenant %s sweep %d: repeated spec returned different results", tenants[t], j)
			}
			out.sweepMS = append(out.sweepMS, ms(run.latency))
			submits = append(submits, ms(run.submit))
			fetches = append(fetches, ms(run.fetch))
		}
	}
	if r == 0 {
		b.digest0 = dg.sum()
	}
	out.digest = b.digest0
	b.prev, b.last = runs[0], runs

	if tr != nil {
		executed := after.CellsExecuted - before.CellsExecuted
		hits := after.CacheHits - before.CacheHits
		claims := hits + after.CacheMisses - before.CacheMisses
		out.layer = map[string]float64{
			"serve.submit_ms_p50":        summarize(submits).Median,
			"serve.results_fetch_ms_p50": summarize(fetches).Median,
			"serve.cell_service_ms":      ratio(serveWorkers*ms(wall), float64(executed)),
			"serve.cells_executed":       float64(executed),
			"serve.cells_from_cache":     float64(after.CellsFromCache - before.CellsFromCache),
			"serve.cache_hit_rate":       ratio(float64(hits), float64(claims)),
			"serve.retries":              float64(after.Retries - before.Retries),
			"serve.rejected_429":         float64(after.RejectedLoad - before.RejectedLoad),
		}
	}
	return out
}

// sameCells compares two results documents cell by cell.
func sameCells(a, b serve.ResultsDoc) bool {
	if len(a.Cells) != len(b.Cells) {
		return false
	}
	for i := range a.Cells {
		x, y := a.Cells[i], b.Cells[i]
		if x.Key != y.Key || x.Result == nil || y.Result == nil || *x.Result != *y.Result {
			return false
		}
	}
	return true
}

// sweep is one client request cycle: submit, poll to done, fetch.
func (b *serveBench) sweep(tr *tracer, parent int, tenant string, spec serve.SweepSpec) sweepRun {
	run := sweepRun{spec: spec}
	root := tr.begin(parent, "sweep")
	defer tr.end(root)
	body, err := json.Marshal(spec)
	if err != nil {
		run.err = err
		return run
	}

	var view serve.SweepView
	sent := time.Now()
	id := tr.begin(root, "http.submit")
	run.err = b.call(http.MethodPost, "/v1/sweeps", tenant, body, &view)
	tr.end(id)
	run.submit = time.Since(sent)
	if run.err != nil {
		return run
	}

	id = tr.begin(root, "http.poll")
	for view.Status != "done" {
		if view.Status == "canceled" || time.Since(sent) > sweepTimeout {
			run.err = fmt.Errorf("sweep %s is %s after %v", view.ID, view.Status, time.Since(sent))
			break
		}
		time.Sleep(pollEvery)
		if run.err = b.call(http.MethodGet, "/v1/sweeps/"+view.ID, tenant, nil, &view); run.err != nil {
			break
		}
	}
	tr.end(id)
	run.latency = time.Since(sent)
	if run.err != nil {
		return run
	}
	run.completed = true

	fetched := time.Now()
	id = tr.begin(root, "http.results")
	run.err = b.call(http.MethodGet, "/v1/sweeps/"+view.ID+"/results", tenant, nil, &run.doc)
	tr.end(id)
	run.fetch = time.Since(fetched)
	return run
}

// call makes one request; any non-2xx status is an error.
func (b *serveBench) call(method, path, tenant string, body []byte, into any) error {
	req, err := http.NewRequest(method, b.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("X-Tenant", tenant)
	resp, err := b.ts.Client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, into)
}

// verify reruns, directly and without the daemon, every cell of each
// tenant's first sweep of the latest round: what the daemon served —
// computed or from the memo — must be what the simulator computes.
func (b *serveBench) verify() checks {
	var k checks
	for t := range b.last {
		if len(b.last[t]) == 0 {
			k.expect(false, "tenant %s ran no sweep", tenants[t])
			continue
		}
		run := b.last[t][0]
		spec := run.spec
		if err := spec.Normalize(); err != nil {
			k.expect(false, "spec: %v", err)
			continue
		}
		served := make(map[string]*sim.Result)
		for _, c := range run.doc.Cells {
			served[c.Key] = c.Result
		}
		for _, cell := range spec.Cells() {
			wp, err := spec.WorkloadParams(cell)
			if err != nil {
				k.expect(false, "cell %s: %v", cell.Key, err)
				continue
			}
			progs := workload.Generate(wp, spec.Cores, spec.Instrs, spec.Seed)
			sys, err := sim.New(spec.Config(cell), progs, sim.WithWarmFilter(workload.WarmFilter(wp)))
			var res sim.Result
			if err == nil {
				res, err = sys.Run()
			}
			got := served[cell.Key]
			k.expect(err == nil && got != nil && *got == res, "tenant %s cell %s: served result differs from a direct run (err=%v)", tenants[t], cell.Key, err)
		}
	}
	return k
}

// probe splits the sweep's RoW cell by layer (the spec's
// configuration is RW+Dir_Sat with forwarding) and times the journal
// the queue is built on.
func (b *serveBench) probe(tr *tracer, l ledger) checks {
	var k checks
	var acc layerAcc
	root := tr.begin(noSpan, "probe")
	defer tr.end(root)
	probeCell(tr, root, b.seed, cellSpec{wl: "sps", cores: b.cores, instrs: b.instrs, variant: experiments.VarDirSatFwd}, &acc, &k)
	acc.emit(l)

	const records = 1000
	path := filepath.Join(b.tmp, "append-probe.jsonl")
	defer os.Remove(path)
	res := sim.Result{Cycles: 1}
	id := tr.begin(root, "lifecycle.append")
	j, err := lifecycle.Create(path, lifecycle.Record{Tool: "rowperf"})
	if err == nil {
		for i := 0; i < records; i++ {
			j.Append(lifecycle.Record{Kind: "cell", Sweep: "sw-probe", Key: fmt.Sprintf("cell-%d", i), Status: lifecycle.StatusOK, Result: &res})
		}
		err = j.Close()
	}
	d := tr.end(id)
	k.expect(err == nil, "lifecycle append probe: %v", err)
	l.add("lifecycle.append_us_per_record", float64(d)/float64(time.Microsecond)/records)
	return k
}

// close drains the daemon — context cancel, Run returning nil — then
// stops the listener and removes the journal directory. A second
// call finds nothing left to do.
func (b *serveBench) close() error {
	var err error
	if b.cancel != nil {
		b.cancel()
		if rerr := <-b.runErr; rerr != nil {
			err = fmt.Errorf("daemon drain: %w", rerr)
		}
		b.cancel = nil
	}
	if b.ts != nil {
		b.ts.Close()
		b.ts = nil
	}
	if rerr := os.RemoveAll(b.tmp); err == nil {
		err = rerr
	}
	return err
}
