package serve

import (
	"sync"
	"time"
)

// WorkerState is one worker's live view in the /v1/stats snapshot.
type WorkerState struct {
	State string `json:"state"`          // "idle" | "running" | "waiting-memo"
	Cell  string `json:"cell,omitempty"` // journal key of the cell being worked
	Since int64  `json:"since_unix_ms"`
}

// Stats is the /v1/stats snapshot: the daemon's health in numbers.
// Everything here is observability — no simulation state, so wall
// clocks are fine.
type Stats struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	CodeRev       string  `json:"code_rev"`
	ModelVersion  int     `json:"model_version"` // sim.ModelVersion
	Journal       string  `json:"journal"`
	Draining      bool    `json:"draining"`

	QueueDepth   int            `json:"queue_depth"` // pending cells, all tenants
	TenantDepths map[string]int `json:"tenant_depths,omitempty"`

	SweepsAccepted uint64 `json:"sweeps_accepted"`
	SweepsDeduped  uint64 `json:"sweeps_deduped"`  // idempotent resubmissions
	SweepsCanceled uint64 `json:"sweeps_canceled"` // explicit DELETEs
	RejectedLoad   uint64 `json:"rejected_429"`    // shed by admission control
	RejectedDrain  uint64 `json:"rejected_503"`    // refused while draining/broken

	CellsExecuted    uint64 `json:"cells_executed"`     // computed by a worker
	CellsFromCache   uint64 `json:"cells_from_cache"`   // served by the memo
	SetupGenerated   uint64 `json:"setup_generated"`    // trace sets generated
	SetupWarmed      uint64 `json:"setup_warmed"`       // executed cells that warmed (and left a warm image)
	SetupReused      uint64 `json:"setup_reused"`       // executed cells built from an image already there
	SetupEvicted     uint64 `json:"setup_evicted"`      // warm images dropped to make room
	CellsResumed     uint64 `json:"cells_resumed"`      // served from the journal at startup
	CellsRequeued    uint64 `json:"cells_requeued"`     // re-enqueued at startup
	CellsCkptResumed uint64 `json:"cells_ckpt_resumed"` // resumed mid-run from a checkpoint

	OutcomeOK       uint64 `json:"outcome_ok"`
	OutcomeFailed   uint64 `json:"outcome_failed"`
	OutcomeDegraded uint64 `json:"outcome_degraded"`
	OutcomeCanceled uint64 `json:"outcome_canceled"`

	Retries uint64 `json:"retries"` // attempts beyond the first
	Panics  uint64 `json:"panics"`  // contained attempt panics

	CacheHits    uint64  `json:"cache_hits"`
	CacheMisses  uint64  `json:"cache_misses"`
	CacheEntries int     `json:"cache_entries"`
	CacheHitRate float64 `json:"cache_hit_rate"`

	Workers []WorkerState `json:"workers"`
}

// statsBook accumulates the mutable counters behind Stats.
type statsBook struct {
	mu      sync.Mutex
	start   time.Time
	workers []WorkerState

	sweepsAccepted, sweepsDeduped  uint64
	sweepsCanceled                 uint64
	rejectedLoad, rejectedDrain    uint64
	cellsExecuted, cellsFromCache  uint64
	cellsResumed, cellsRequeued    uint64
	cellsCkptResumed               uint64
	okN, failedN, degradedN, cancN uint64
	retries, panics                uint64
}

func newStatsBook(workers int) *statsBook {
	b := &statsBook{start: time.Now(), workers: make([]WorkerState, workers)}
	for i := range b.workers {
		b.workers[i] = WorkerState{State: "idle", Since: b.start.UnixMilli()}
	}
	return b
}

func (b *statsBook) setWorker(i int, state, cell string) {
	b.mu.Lock()
	b.workers[i] = WorkerState{State: state, Cell: cell, Since: time.Now().UnixMilli()}
	b.mu.Unlock()
}

func (b *statsBook) add(f func(*statsBook)) {
	b.mu.Lock()
	f(b)
	b.mu.Unlock()
}
