package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"regexp"
	"sort"
	"strconv"

	"rowsim/internal/sim"
)

// API types. Results documents are canonical: cells in spec order,
// fixed field order, no timestamps or attempt counts — so a sweep's
// results are byte-identical whether the daemon ran uninterrupted or
// was kill -9'd and restarted ten times (the chaos gate compares
// exactly these bytes).

// SweepView is the status document for one sweep.
type SweepView struct {
	ID       string `json:"id"`
	Tenant   string `json:"tenant"`
	SpecHash string `json:"spec_hash"`
	Status   string `json:"status"` // queued | running | done | canceled
	Cells    int    `json:"cells"`
	Pending  int    `json:"pending"`
	Running  int    `json:"running"`
	OK       int    `json:"ok"`
	Failed   int    `json:"failed"`
	Degraded int    `json:"degraded"`
	Canceled int    `json:"canceled"`
	Results  string `json:"results,omitempty"` // href, set once done
}

// CellResult is one cell of a results document.
type CellResult struct {
	Key    string      `json:"key"`
	Status string      `json:"status"`
	Error  string      `json:"error,omitempty"`
	Result *sim.Result `json:"result,omitempty"`
}

// ResultsDoc is the canonical results document of a finished sweep.
type ResultsDoc struct {
	ID       string       `json:"id"`
	SpecHash string       `json:"spec_hash"`
	Cells    []CellResult `json:"cells"`
}

// errorDoc is every non-2xx body: {"error": "..."}.
type errorDoc struct {
	Error string `json:"error"`
}

var tenantRe = regexp.MustCompile(`^[a-z0-9][a-z0-9-]{0,31}$`)

// tenantOf extracts and validates the caller's tenant from the
// X-Tenant header (default "default"). Tenancy is cooperative
// namespacing, not authentication: it scopes queues, fair share and
// sweep visibility.
func tenantOf(r *http.Request) (string, error) {
	t := r.Header.Get("X-Tenant")
	if t == "" {
		return "default", nil
	}
	if !tenantRe.MatchString(t) {
		return "", fmt.Errorf("invalid X-Tenant %q (want [a-z0-9-]{1,32})", t)
	}
	return t, nil
}

// Handler returns the daemon's HTTP API. A submission answers 202 on
// admission, 200 when the tenant resubmits the same spec, 429 with
// Retry-After when shed, and 503 while draining or when the journal
// cannot persist it. Results are 409 until every cell is terminal. A
// DELETE is 200 on repeat, 409 once the sweep is done and 404 across
// tenants. /healthz stays 200 while draining; /readyz does not.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", s.handleSubmit)
	mux.HandleFunc("GET /v1/sweeps", s.handleList)
	mux.HandleFunc("GET /v1/sweeps/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/sweeps/{id}", s.handleDelete)
	mux.HandleFunc("GET /v1/sweeps/{id}/results", s.handleResults)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorDoc{Error: fmt.Sprintf(format, args...)})
}

// handleSubmit is POST /v1/sweeps: validate, shed load, durably admit.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	tenant, err := tenantOf(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if s.draining.Load() {
		s.stats.add(func(b *statsBook) { b.rejectedDrain++ })
		writeErr(w, http.StatusServiceUnavailable, "draining: not admitting new sweeps")
		return
	}
	if err := s.q.journalErr(); err != nil {
		// A queue that cannot persist admissions must not accept them:
		// an unjournaled 202 would be lost by the next crash.
		s.stats.add(func(b *statsBook) { b.rejectedDrain++ })
		writeErr(w, http.StatusServiceUnavailable, "journal unavailable: %v", err)
		return
	}
	var spec SweepSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeErr(w, http.StatusBadRequest, "bad spec: %v", err)
		return
	}
	if err := spec.Normalize(); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}

	// Admission control: bounded total queue depth plus a per-tenant
	// fair-share bound. Over either limit the submission is shed with
	// 429 + Retry-After — in-flight work keeps completing, memory does
	// not grow, and the client knows when to come back.
	newCells := len(spec.Cells())
	total, mine := s.q.depths(tenant)
	if _, exists := s.q.get(tenant, sweepID(tenant, spec)); !exists {
		if total+newCells > s.cfg.MaxQueue || mine+newCells > s.cfg.TenantQueue {
			s.stats.add(func(b *statsBook) { b.rejectedLoad++ })
			w.Header().Set("Retry-After", strconv.Itoa(s.admissionRetryAfter(total)))
			writeErr(w, http.StatusTooManyRequests,
				"queue full (%d pending, tenant %d/%d, total limit %d): retry later",
				total, mine, s.cfg.TenantQueue, s.cfg.MaxQueue)
			return
		}
	}

	sw, created, err := s.q.admit(s.cellCtx, tenant, spec)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	code := http.StatusOK
	if created {
		code = http.StatusAccepted
		s.stats.add(func(b *statsBook) { b.sweepsAccepted++ })
	} else {
		s.stats.add(func(b *statsBook) { b.sweepsDeduped++ })
	}
	writeJSON(w, code, s.viewOf(sw))
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	tenant, err := tenantOf(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	views := []SweepView{}
	for _, sw := range s.q.list(tenant) {
		views = append(views, s.viewOf(sw))
	}
	writeJSON(w, http.StatusOK, map[string]any{"sweeps": views})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	tenant, err := tenantOf(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	sw, ok := s.q.get(tenant, r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no such sweep for this tenant")
		return
	}
	writeJSON(w, http.StatusOK, s.viewOf(sw))
}

// handleDelete is DELETE /v1/sweeps/{id}: permanently cancel a sweep.
// Pending cells are canceled and journaled, running cells get their
// context canceled and settle through the worker path, and the
// journaled cancel marker makes the deletion survive restarts.
// Idempotent (re-deleting a canceled sweep is 200); a done sweep is
// 409 — its results are final and stay retrievable.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	tenant, err := tenantOf(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := s.q.journalErr(); err != nil {
		// A cancellation that cannot be journaled would silently undo
		// itself on restart; refuse instead.
		writeErr(w, http.StatusServiceUnavailable, "journal unavailable: %v", err)
		return
	}
	sw, first, err := s.q.cancel(tenant, r.PathValue("id"))
	switch {
	case err == errSweepNotFound:
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	case err == errSweepDone:
		writeErr(w, http.StatusConflict, "%v", err)
		return
	case err != nil:
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if first {
		s.stats.add(func(b *statsBook) { b.sweepsCanceled++ })
	}
	writeJSON(w, http.StatusOK, s.viewOf(sw))
}

// handleResults is GET /v1/sweeps/{id}/results: the canonical results
// document, available only once every cell is terminal.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	tenant, err := tenantOf(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	sw, ok := s.q.get(tenant, r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no such sweep for this tenant")
		return
	}
	s.q.mu.Lock()
	status := sw.statusString()
	doc := ResultsDoc{ID: sw.id, SpecHash: sw.spec.Hash()}
	if status == "done" {
		for _, c := range sw.cells {
			cr := CellResult{Key: c.cell.Key, Status: string(c.status), Error: c.errMsg}
			if c.result != nil {
				res := *c.result
				cr.Result = &res
			}
			doc.Cells = append(doc.Cells, cr)
		}
	}
	s.q.mu.Unlock()
	if status != "done" {
		writeErr(w, http.StatusConflict, "sweep is %s, results not final", status)
		return
	}
	// Cells are already in canonical spec order; keep the sort as a
	// belt-and-suspenders guarantee of byte-stable output.
	sort.SliceStable(doc.Cells, func(i, j int) bool { return doc.Cells[i].Key < doc.Cells[j].Key })
	writeJSON(w, http.StatusOK, doc)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Snapshot())
}

// handleHealthz is liveness: the process is up and serving HTTP. It
// stays 200 during a drain (the process is healthy, just leaving).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is readiness: recovered, admitting, journal writable.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.draining.Load():
		writeErr(w, http.StatusServiceUnavailable, "draining")
	case !s.ready.Load():
		writeErr(w, http.StatusServiceUnavailable, "starting")
	case s.q.journalErr() != nil:
		writeErr(w, http.StatusServiceUnavailable, "journal unavailable: %v", s.q.journalErr())
	default:
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}
}

// viewOf snapshots a sweep's status document.
func (s *Server) viewOf(sw *sweepState) SweepView {
	s.q.mu.Lock()
	defer s.q.mu.Unlock()
	pending, running, ok, failed, degraded, canceled := sw.counts()
	v := SweepView{
		ID:       sw.id,
		Tenant:   sw.tenant,
		SpecHash: sw.spec.Hash(),
		Status:   sw.statusString(),
		Cells:    len(sw.cells),
		Pending:  pending,
		Running:  running,
		OK:       ok,
		Failed:   failed,
		Degraded: degraded,
		Canceled: canceled,
	}
	if v.Status == "done" {
		v.Results = "/v1/sweeps/" + sw.id + "/results"
	}
	return v
}
