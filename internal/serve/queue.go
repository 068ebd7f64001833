package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"sync"

	"rowsim/internal/checkpoint"
	"rowsim/internal/experiments"
	"rowsim/internal/lifecycle"
	"rowsim/internal/sim"
)

// cellState is one schedulable cell and its current queue state. The
// in-memory state is always a pure function of the journal: every
// transition is appended before it is observable through the API.
type cellState struct {
	sweep *sweepState
	cell  Cell
	jkey  string // journal key: "<sweepID>/<cellKey>"
	ckey  string // content address (memo cache key)

	status   lifecycle.Status
	attempts int
	class    string
	errMsg   string
	result   *sim.Result
	resumed  bool // terminal state served from the journal at recovery
	cached   bool // result served from the memo cache, not computed
}

// sweepState is one admitted sweep: its spec, cells and the context
// the spec's deadline propagates through (request → sweep → cell).
type sweepState struct {
	id     string
	tenant string
	spec   SweepSpec
	cells  []*cellState
	byKey  map[string]*cellState

	// canceled marks an explicit DELETE: unlike drain-canceled cells
	// (which a restart re-runs), a deleted sweep stays canceled across
	// restarts — the cancel marker is journaled and replayed.
	canceled bool

	ctx    context.Context
	cancel context.CancelFunc
}

// settled counts cells that will not run again in this process:
// terminal ones plus canceled ones (canceled re-runs only after a
// restart or resubmission).
func (sw *sweepState) counts() (pending, running, ok, failed, degraded, canceled int) {
	for _, c := range sw.cells {
		switch c.status {
		case lifecycle.StatusPending:
			pending++
		case lifecycle.StatusRunning:
			running++
		case lifecycle.StatusOK:
			ok++
		case lifecycle.StatusFailed:
			failed++
		case lifecycle.StatusDegraded:
			degraded++
		case lifecycle.StatusCanceled:
			canceled++
		}
	}
	return
}

// statusString summarizes the sweep for the API. "canceled" covers
// two cases: a drain-canceled sweep (resumable — a restart re-runs
// the canceled cells) and an explicitly deleted one (permanent — the
// journaled cancel marker replays on restart).
func (sw *sweepState) statusString() string {
	pending, running, _, _, _, canceled := sw.counts()
	switch {
	case sw.canceled && pending+running == 0:
		return "canceled"
	case pending+running > 0 && running > 0:
		return "running"
	case pending > 0:
		return "queued"
	case canceled > 0:
		return "canceled" // resumable: a restart re-runs the canceled cells
	default:
		return "done"
	}
}

// queue is the durable multi-tenant cell queue. The lifecycle journal
// is the single source of truth; the in-memory maps are its replayed
// projection plus scheduling indexes (per-tenant FIFOs walked
// round-robin for fair share).
type queue struct {
	mu   sync.Mutex
	jnl  *lifecycle.Journal
	path string
	// ckptDir holds the cells' checkpoints, named by content key; ""
	// when checkpointing is off.
	ckptDir string

	sweeps map[string]*sweepState
	order  []string // sweep IDs in admission order

	tenantFIFO  map[string][]*cellState // pending cells per tenant
	tenantOrder []string                // round-robin ring of tenant names
	rrNext      int
	pendingN    int // total pending cells across tenants

	wake chan struct{} // capacity 1: signaled when work arrives
}

// queueMetaArgs is the rowserve journal's meta definition. Create
// hashes it into the meta record, so CheckSpec catches a tampered
// header the same way rowsweep resume does.
func queueMetaArgs() map[string]string {
	return map[string]string{"format": "rowserve-queue-v1"}
}

// sweepID scopes a spec's identity to its tenant: the same spec
// submitted by two tenants is two sweeps (isolation), while the memo
// cache still computes the shared cells once (efficiency).
func sweepID(tenant string, spec SweepSpec) string {
	sum := sha256.Sum256([]byte(tenant + "\x00" + spec.Hash()))
	return "sw-" + hex.EncodeToString(sum[:])[:12]
}

// openQueue creates the journal at path, or — when the file already
// exists — replays it and reconstructs the exact queue state: sweeps
// re-admitted, terminal cells kept with their results, everything else
// re-enqueued. Recovered terminal results also seed the memo cache,
// when this model computed them, and checkpoints no cell will read
// again are removed.
// Returns (queue, resumedCells, requeuedCells).
func openQueue(baseCtx context.Context, path, ckptDir string, memo *experiments.Flight[memoOutcome]) (*queue, int, int, error) {
	q := &queue{
		path:       path,
		ckptDir:    ckptDir,
		sweeps:     make(map[string]*sweepState),
		tenantFIFO: make(map[string][]*cellState),
		wake:       make(chan struct{}, 1),
	}
	if _, err := os.Stat(path); err != nil {
		if !os.IsNotExist(err) {
			return nil, 0, 0, err
		}
		jnl, err := lifecycle.Create(path, lifecycle.Record{Tool: "rowserve", Args: queueMetaArgs()})
		if err != nil {
			return nil, 0, 0, err
		}
		q.jnl = jnl
		return q, 0, 0, nil
	}

	jnl, snap, err := lifecycle.Resume(path)
	if err != nil {
		return nil, 0, 0, err
	}
	if err := snap.CheckSpec(path); err != nil {
		jnl.Close()
		return nil, 0, 0, err
	}
	if snap.Meta.Tool != "rowserve" {
		jnl.Close()
		return nil, 0, 0, fmt.Errorf("serve: journal %s belongs to %q, not rowserve", path, snap.Meta.Tool)
	}
	q.jnl = jnl
	// Another model's results keep their own sweeps' outcomes but never
	// seed the memo, which serves new sweeps.
	seed := snap.Meta.Model == sim.ModelVersion
	if !seed {
		log.Printf("serve: journal %s is from model %d, this build runs model %d: its results are not memoized", path, snap.Meta.Model, sim.ModelVersion)
	}

	var resumed, requeued int
	for _, rec := range snap.Sweeps {
		if len(rec.Spec) == 0 && rec.Status == lifecycle.StatusCanceled {
			// Cancel marker (DELETE /v1/sweeps/{id}): re-apply it to the
			// sweep admitted earlier in the journal. An unknown sweep ID
			// is ignored — the marker is idempotent by construction.
			if sw, ok := q.sweeps[rec.Sweep]; ok {
				q.cancelSweepLocked(sw, false)
			}
			continue
		}
		var spec SweepSpec
		if err := json.Unmarshal(rec.Spec, &spec); err != nil {
			jnl.Close()
			return nil, 0, 0, fmt.Errorf("serve: journal %s: sweep %s has a corrupt spec: %w", path, rec.Sweep, err)
		}
		if err := spec.Normalize(); err != nil {
			jnl.Close()
			return nil, 0, 0, fmt.Errorf("serve: journal %s: sweep %s: %w", path, rec.Sweep, err)
		}
		// The journaled hash must match the embedded spec: a journal
		// whose sweep body diverged from its admission hash was written
		// by a different definition and must not be replayed silently.
		if got := spec.Hash(); rec.SpecHash != "" && got != rec.SpecHash {
			jnl.Close()
			return nil, 0, 0, &lifecycle.SpecMismatchError{Path: path, Field: rec.Sweep, Want: rec.SpecHash, Got: got}
		}
		sw, err := q.admitLocked(baseCtx, rec.Sweep, rec.Tenant, spec, nil)
		if err != nil {
			jnl.Close()
			return nil, 0, 0, err
		}
		for _, c := range sw.cells {
			prev, found := snap.Runs[c.jkey]
			if !found || !prev.Status.Terminal() {
				continue // stays pending: the restart re-runs it
			}
			// Completed before the crash: keep the journaled outcome and
			// never recompute (the no-duplication half of the chaos gate).
			q.dequeueLocked(c)
			c.status = prev.Status
			c.attempts = prev.Attempts
			c.class = prev.Class
			c.errMsg = prev.Error
			c.result = prev.Result
			c.resumed = true
			resumed++
			switch {
			case !seed: // its own sweep's outcome only
			case prev.Status == lifecycle.StatusOK:
				memo.Put(c.ckey, memoOutcome{res: *prev.Result})
			case prev.Status == lifecycle.StatusFailed:
				memo.Put(c.ckey, memoOutcome{err: prev.Error})
			}
		}
	}
	wanted := make(map[string]bool) // content key -> a cell that runs again holds it
	for _, id := range q.order {
		for _, c := range q.sweeps[id].cells {
			if c.status == lifecycle.StatusPending {
				requeued++
			}
			wanted[c.ckey] = wanted[c.ckey] || runsAgain(c)
		}
	}
	// A kill between journaling a cell's end and removing its
	// checkpoint strands the files.
	for ckey, w := range wanted {
		if !w {
			_ = checkpoint.Remove(checkpoint.Path(q.ckptDir, ckey))
		}
	}
	return q, resumed, requeued, nil
}

// runsAgain reports whether c will still run, in this process or after
// a restart: it is not terminal and its sweep was not deleted.
func runsAgain(c *cellState) bool { return !c.status.Terminal() && !c.sweep.canceled }

// dropCheckpointLocked removes c's checkpoint once c will not run again
// and no cell that will shares its content key, the checkpoint's name:
// two sweeps' identical cells resume from one file. Caller holds q.mu.
func (q *queue) dropCheckpointLocked(c *cellState) {
	if q.ckptDir == "" || runsAgain(c) {
		return
	}
	for _, id := range q.order {
		for _, o := range q.sweeps[id].cells {
			if o.ckey == c.ckey && runsAgain(o) {
				return
			}
		}
	}
	_ = checkpoint.Remove(checkpoint.Path(q.ckptDir, c.ckey))
}

// admitLocked registers a sweep (recovery passes journalRec == nil to
// skip re-journaling). Caller holds no lock during recovery; live
// admission goes through admit.
func (q *queue) admitLocked(baseCtx context.Context, id, tenant string, spec SweepSpec, journalRec *lifecycle.Record) (*sweepState, error) {
	sw := &sweepState{
		id:     id,
		tenant: tenant,
		spec:   spec,
		byKey:  make(map[string]*cellState),
	}
	// Deleting the sweep cancels this context, which stops its running
	// cells.
	if d := spec.Timeout(); d > 0 {
		sw.ctx, sw.cancel = context.WithTimeout(baseCtx, d)
	} else {
		sw.ctx, sw.cancel = context.WithCancel(baseCtx)
	}

	for _, cell := range spec.Cells() {
		ckey, err := spec.ContentKey(cell)
		if err != nil {
			sw.cancel()
			return nil, err
		}
		cs := &cellState{
			sweep:  sw,
			cell:   cell,
			jkey:   id + "/" + cell.Key,
			ckey:   ckey,
			status: lifecycle.StatusPending,
		}
		sw.cells = append(sw.cells, cs)
		sw.byKey[cell.Key] = cs
	}
	if journalRec != nil {
		q.jnl.Append(*journalRec)
		if err := q.jnl.Err(); err != nil {
			sw.cancel()
			return nil, fmt.Errorf("serve: journal admission: %w", err)
		}
	}
	q.sweeps[id] = sw
	q.order = append(q.order, id)
	if _, ok := q.tenantFIFO[tenant]; !ok {
		q.tenantOrder = append(q.tenantOrder, tenant)
	}
	q.tenantFIFO[tenant] = append(q.tenantFIFO[tenant], sw.cells...)
	q.pendingN += len(sw.cells)
	q.signal()
	return sw, nil
}

// admit durably accepts a sweep: the "sweep" record is flushed to the
// journal before admit returns, so an HTTP 202 means the cells survive
// kill -9. Resubmitting an identical spec returns the existing sweep
// (created == false) — submission is idempotent.
func (q *queue) admit(baseCtx context.Context, tenant string, spec SweepSpec) (sw *sweepState, created bool, err error) {
	id := sweepID(tenant, spec)
	q.mu.Lock()
	defer q.mu.Unlock()
	if sw, ok := q.sweeps[id]; ok {
		return sw, false, nil
	}
	rec := lifecycle.Record{
		Kind:     "sweep",
		Sweep:    id,
		Tenant:   tenant,
		Spec:     json.RawMessage(spec.Canonical()),
		SpecHash: spec.Hash(),
	}
	sw, err = q.admitLocked(baseCtx, id, tenant, spec, &rec)
	if err != nil {
		return nil, false, err
	}
	return sw, true, nil
}

// Sentinel results for cancel, mapped to HTTP codes by the handler.
var (
	errSweepNotFound = fmt.Errorf("no such sweep for this tenant")
	errSweepDone     = fmt.Errorf("sweep is done; results are final")
)

// cancel permanently cancels a tenant's sweep (DELETE /v1/sweeps/{id}).
// The cancel marker — a second "sweep" record with no spec and status
// canceled — is journaled before any state changes, so the deletion
// survives kill -9 and replays on restart. Pending cells transition to
// canceled (journaled per cell) and leave the scheduling FIFO; running
// cells get their sweep context canceled and settle as canceled through
// the normal worker path. Idempotent: re-deleting a canceled sweep
// succeeds (first == false) without re-journaling. A done sweep (all
// cells terminal, results final) refuses with errSweepDone.
func (q *queue) cancel(tenant, id string) (sw *sweepState, first bool, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	sw, ok := q.sweeps[id]
	if !ok || sw.tenant != tenant {
		return nil, false, errSweepNotFound
	}
	if sw.canceled {
		return sw, false, nil
	}
	if sw.statusString() == "done" {
		return nil, false, errSweepDone
	}
	q.jnl.Append(lifecycle.Record{
		Kind: "sweep", Sweep: id, Tenant: tenant, Status: lifecycle.StatusCanceled,
	})
	if err := q.jnl.Err(); err != nil {
		return nil, false, fmt.Errorf("serve: journal cancel: %w", err)
	}
	q.cancelSweepLocked(sw, true)
	// Running cells drop theirs when they settle (complete).
	for _, c := range sw.cells {
		if c.status == lifecycle.StatusCanceled {
			q.dropCheckpointLocked(c)
		}
	}
	return sw, true, nil
}

// cancelSweepLocked applies a sweep cancellation: pending cells become
// canceled and leave the FIFO, the sweep context is canceled so running
// cells (and memo waiters) unwind. journal=false is the replay path —
// the records already exist.
func (q *queue) cancelSweepLocked(sw *sweepState, journal bool) {
	sw.canceled = true
	for _, c := range sw.cells {
		if c.status != lifecycle.StatusPending {
			continue
		}
		q.dequeueLocked(c)
		c.status = lifecycle.StatusCanceled
		if journal {
			q.jnl.Append(lifecycle.Record{
				Kind: "cell", Sweep: sw.id, Tenant: sw.tenant,
				Key: c.jkey, Seed: sw.spec.Seed, Status: lifecycle.StatusCanceled,
			})
		}
	}
	sw.cancel()
}

// depths returns (total pending, pending for tenant) for admission
// control.
func (q *queue) depths(tenant string) (total, forTenant int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.pendingN, len(q.tenantFIFO[tenant])
}

// pop takes the next pending cell under per-tenant fair share: tenants
// are walked round-robin, so a tenant with one queued sweep is not
// starved behind a tenant with a hundred. The cell is marked running
// and the transition journaled. Returns nil when nothing is pending.
func (q *queue) pop() *cellState {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := len(q.tenantOrder)
	for i := 0; i < n; i++ {
		tenant := q.tenantOrder[(q.rrNext+i)%n]
		fifo := q.tenantFIFO[tenant]
		if len(fifo) == 0 {
			continue
		}
		c := fifo[0]
		q.tenantFIFO[tenant] = fifo[1:]
		q.pendingN--
		q.rrNext = (q.rrNext + i + 1) % n
		c.status = lifecycle.StatusRunning
		q.jnl.Append(lifecycle.Record{
			Kind: "cell", Sweep: c.sweep.id, Tenant: tenant,
			Key: c.jkey, Seed: c.sweep.spec.Seed, Status: lifecycle.StatusRunning,
		})
		return c
	}
	return nil
}

// dequeueLocked removes a specific cell from its tenant FIFO (recovery
// marking a journaled-terminal cell done).
func (q *queue) dequeueLocked(c *cellState) {
	fifo := q.tenantFIFO[c.sweep.tenant]
	for i, e := range fifo {
		if e == c {
			q.tenantFIFO[c.sweep.tenant] = append(fifo[:i:i], fifo[i+1:]...)
			q.pendingN--
			return
		}
	}
}

// complete journals a cell's outcome and settles its in-memory state.
// cached marks results served from the memo rather than computed.
func (q *queue) complete(c *cellState, out lifecycle.Outcome, cached bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	c.status = out.Status
	c.attempts = out.Attempts
	c.cached = cached
	rec := lifecycle.Record{
		Kind: "cell", Sweep: c.sweep.id, Tenant: c.sweep.tenant,
		Key: c.jkey, Seed: c.sweep.spec.Seed,
		Status: out.Status, Attempts: out.Attempts,
	}
	if out.Err != nil {
		c.errMsg = out.Err.Error()
		c.class = lifecycle.Classify(out.Err).String()
		rec.Error, rec.Class = c.errMsg, c.class
	}
	if out.Status == lifecycle.StatusOK {
		res := out.Result
		c.result = &res
		rec.Result = &res
	}
	q.jnl.Append(rec)
	q.dropCheckpointLocked(c)
	if done := q.sweepDoneLocked(c.sweep); done {
		c.sweep.cancel() // release the deadline timer
	}
}

// sweepDoneLocked reports whether no cell of sw can still run in this
// process.
func (q *queue) sweepDoneLocked(sw *sweepState) bool {
	for _, c := range sw.cells {
		if c.status == lifecycle.StatusPending || c.status == lifecycle.StatusRunning {
			return false
		}
	}
	return true
}

// get returns a sweep by ID, tenant-scoped: a tenant can only see its
// own sweeps.
func (q *queue) get(tenant, id string) (*sweepState, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	sw, ok := q.sweeps[id]
	if !ok || sw.tenant != tenant {
		return nil, false
	}
	return sw, true
}

// list returns the tenant's sweeps in admission order.
func (q *queue) list(tenant string) []*sweepState {
	q.mu.Lock()
	defer q.mu.Unlock()
	var out []*sweepState
	for _, id := range q.order {
		if sw := q.sweeps[id]; sw.tenant == tenant {
			out = append(out, sw)
		}
	}
	return out
}

// signal wakes one idle worker (non-blocking; the channel is a level
// trigger, workers re-scan the queue after every wake).
func (q *queue) signal() {
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

// journalErr surfaces the queue's first persistence failure. A broken
// journal flips the daemon read-only: admission stops (503) because an
// acceptance that cannot be persisted would be a lie.
func (q *queue) journalErr() error {
	return q.jnl.Err()
}

// close flushes and closes the journal.
func (q *queue) close() error {
	return q.jnl.Close()
}
