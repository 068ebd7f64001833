// Package serve implements rowserve: a long-running, multi-tenant
// simulation daemon. It accepts sweep specifications over HTTP/JSON,
// persists them into a crash-safe queue built on the lifecycle
// journal (the journal IS the queue: every cell state transition is
// an appended record and restart replays the file to reconstruct the
// exact queue), schedules cells across a bounded worker pool under the
// lifecycle supervisor (panic containment, per-attempt timeouts,
// classified retry), and serves results from a content-addressed memo
// cache so identical cells across sweeps and tenants compute once.
//
// Robustness is the design driver: admission control sheds load with
// 429 + Retry-After instead of growing without bound, SIGTERM/SIGINT
// drain gracefully to a resumable queue, and the chaostest harness
// proves that kill -9 at any point — including mid-journal-append —
// loses no accepted cell, duplicates no completed cell, and yields a
// result set byte-identical to an uninterrupted run.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"rowsim/internal/checkpoint"
	"rowsim/internal/config"
	"rowsim/internal/experiments"
	"rowsim/internal/lifecycle"
	"rowsim/internal/sim"
	"rowsim/internal/workload"
)

// Params maps sweep-parameter names to their application on the
// workload: the one definition of "what can be swept".
var Params = map[string]func(*workload.Params, float64){
	"atomics10k":  func(p *workload.Params, v float64) { p.AtomicsPer10K = v },
	"sharedfrac":  func(p *workload.Params, v float64) { p.SharedFrac = v },
	"hotlines":    func(p *workload.Params, v float64) { p.HotLines = int(v) },
	"storebefore": func(p *workload.Params, v float64) { p.StoreBefore = v },
	"workingset":  func(p *workload.Params, v float64) { p.WorkingSet = int(v) },
	"depmean":     func(p *workload.Params, v float64) { p.DepMean = v },
	"addrindep":   func(p *workload.Params, v float64) { p.AddrIndep = v },
}

// ParamNames returns the known sweep parameters, sorted (flag help,
// error messages).
func ParamNames() []string {
	names := make([]string, 0, len(Params))
	for n := range Params {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ApplyParam applies one sweep value to the workload parameters,
// failing on unknown parameter names.
func ApplyParam(p *workload.Params, name string, v float64) error {
	apply, ok := Params[name]
	if !ok {
		return fmt.Errorf("serve: unknown sweep parameter %q (known: %s)", name, strings.Join(ParamNames(), ", "))
	}
	apply(p, v)
	return nil
}

// Policies maps spec policy names to the variants a cell runs. Every
// one carries the RW+Dir detector, the Saturate predictor and
// store-to-atomic forwarding; only the policy differs.
var Policies = map[string]experiments.Variant{
	"eager": servedVariant(config.PolicyEager),
	"lazy":  servedVariant(config.PolicyLazy),
	"row":   servedVariant(config.PolicyRoW),
}

func servedVariant(p config.AtomicPolicy) experiments.Variant {
	return experiments.Variant{Policy: p, Detection: config.DetectRWDir, Predictor: config.PredSaturate, Forward: true, Threshold: -1}
}

// DefaultPolicies is the comparison trio a spec sweeps when it names
// none explicitly, in canonical order.
var DefaultPolicies = []string{"eager", "lazy", "row"}

// Spec limits: a single spec may not expand into more cells than this
// (admission control starts at the parse boundary — a huge spec is
// rejected before it allocates anything).
const (
	MaxCellsPerSweep = 256
	maxCores         = 512
	maxInstrs        = 1_000_000
)

// SweepSpec is one sweep: a parameter swept over a value list for a
// base workload, each value simulated under each policy. It is the JSON
// body of POST /v1/sweeps and what cmd/rowsweep builds from its flags;
// cells, keys, configuration, content keys and the attempt itself all
// come from it, so a spec means the same cells on either front end.
type SweepSpec struct {
	Workload string    `json:"workload"`           // base workload name
	Param    string    `json:"param"`              // swept parameter (see Params)
	Values   []float64 `json:"values"`             // sweep points
	Policies []string  `json:"policies,omitempty"` // default eager,lazy,row
	Cores    int       `json:"cores,omitempty"`    // default 8
	Instrs   int       `json:"instrs,omitempty"`   // per-core instructions, default 4000
	Seed     uint64    `json:"seed,omitempty"`     // 0 selects the documented default seed

	// TimeoutMS, when positive, bounds the whole sweep's wall-clock
	// time from admission; cells that miss the deadline are journaled
	// canceled and re-run if the sweep is resubmitted or the daemon
	// restarts (the deadline re-arms per process).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Resolve fills defaults and checks that the spec names things that
// exist — what any front end needs before Cells. It imposes no size
// limits: those are the daemon's admission control (Normalize).
func (s *SweepSpec) Resolve() error {
	if s.Workload == "" {
		s.Workload = "sps"
	}
	if _, err := workload.Get(s.Workload); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if s.Param == "" {
		s.Param = "sharedfrac"
	}
	if _, ok := Params[s.Param]; !ok {
		return fmt.Errorf("serve: unknown sweep parameter %q (known: %s)", s.Param, strings.Join(ParamNames(), ", "))
	}
	if len(s.Values) == 0 {
		return fmt.Errorf("serve: spec has no sweep values")
	}
	if len(s.Policies) == 0 {
		s.Policies = append([]string(nil), DefaultPolicies...)
	}
	for _, p := range s.Policies {
		if _, ok := Policies[p]; !ok {
			return fmt.Errorf("serve: unknown policy %q (known: eager, lazy, row)", p)
		}
	}
	if s.Cores == 0 {
		s.Cores = 8
	}
	if s.Instrs == 0 {
		s.Instrs = 4000
	}
	if s.Seed == 0 {
		s.Seed = experiments.DefaultSeed
	}
	return nil
}

// Normalize is Resolve plus the daemon's admission limits. It must be
// called before Hash or ID: normalization is part of the canonical
// form, so `{"cores":0}` and `{"cores":8}` are the same sweep.
func (s *SweepSpec) Normalize() error {
	if err := s.Resolve(); err != nil {
		return err
	}
	if s.Cores < 1 || s.Cores > maxCores {
		return fmt.Errorf("serve: cores %d out of range [1,%d]", s.Cores, maxCores)
	}
	if s.Instrs < 1 || s.Instrs > maxInstrs {
		return fmt.Errorf("serve: instrs %d out of range [1,%d]", s.Instrs, maxInstrs)
	}
	if s.TimeoutMS < 0 {
		return fmt.Errorf("serve: negative timeout_ms %d", s.TimeoutMS)
	}
	if n := len(s.Values) * len(s.Policies); n > MaxCellsPerSweep {
		return fmt.Errorf("serve: spec expands to %d cells, limit %d", n, MaxCellsPerSweep)
	}
	return nil
}

// Canonical returns the spec's canonical JSON encoding (normalized
// field values, fixed struct field order). Hashing and journaling use
// this form, so byte equality means spec equality.
func (s SweepSpec) Canonical() []byte {
	b, err := json.Marshal(s)
	if err != nil {
		// A plain struct of scalars and slices cannot fail to encode.
		panic(fmt.Sprintf("serve: encode spec: %v", err))
	}
	return b
}

// Hash is the content hash of the normalized spec: the sweep's
// durable identity. Journals store it next to the embedded spec so
// recovery can prove the spec it replays is the spec that was
// admitted.
func (s SweepSpec) Hash() string {
	sum := sha256.Sum256(s.Canonical())
	return hex.EncodeToString(sum[:])
}

// Timeout returns the whole-sweep deadline, or 0 for none.
func (s SweepSpec) Timeout() time.Duration {
	return time.Duration(s.TimeoutMS) * time.Millisecond
}

// Cell is one schedulable unit of a sweep: (value, policy).
type Cell struct {
	Key    string  // stable within the sweep: "param=value/policy"
	Value  float64 // the swept value
	Policy string  // policy name (a Policies key)
}

// Cells expands the resolved spec into its cell list, in canonical
// order (values outer, policies inner). Expansion is deterministic, so
// recovery re-derives the exact same cells from the journaled spec.
func (s SweepSpec) Cells() []Cell {
	cells := make([]Cell, 0, len(s.Values)*len(s.Policies))
	for _, v := range s.Values {
		for _, p := range s.Policies {
			cells = append(cells, Cell{
				Key:    fmt.Sprintf("%s=%s/%s", s.Param, FormatValue(v), p),
				Value:  v,
				Policy: p,
			})
		}
	}
	return cells
}

// Config materializes the simulator configuration for one cell.
func (s SweepSpec) Config(c Cell) *config.Config {
	return Policies[c.Policy].Config(s.Cores)
}

// WorkloadParams returns the cell's workload parameters: the base
// workload with the swept value applied.
func (s SweepSpec) WorkloadParams(c Cell) (workload.Params, error) {
	p, err := workload.Get(s.Workload)
	if err != nil {
		return workload.Params{}, fmt.Errorf("serve: %w", err)
	}
	if err := ApplyParam(&p, s.Param, c.Value); err != nil {
		return workload.Params{}, err
	}
	return p, nil
}

// ContentKey is the cell's content address: identical keys across any
// two sweeps or tenants denote byte-identical results, so the memo
// cache computes them once. The key covers the full simulator
// configuration, the applied workload parameters, the trace shape and
// seed, and (via experiments.ContentKey) the code revision.
func (s SweepSpec) ContentKey(c Cell) (string, error) {
	wp, err := s.WorkloadParams(c)
	if err != nil {
		return "", err
	}
	return experiments.ContentKey(s.Config(c), wp, s.Cores, s.Instrs, s.Seed), nil
}

// Jobs names the spec's cells as supervised jobs, in Cells order: the
// cell key, the seed and — with a checkpoint directory — the cell's
// content-addressed checkpoint file.
func (s SweepSpec) Jobs(ckptDir string) ([]Cell, []lifecycle.Job, error) {
	cells := s.Cells()
	jobs := make([]lifecycle.Job, len(cells))
	for i, c := range cells {
		ckey, err := s.ContentKey(c)
		if err != nil {
			return nil, nil, err
		}
		jobs[i] = lifecycle.Job{Key: c.Key, Seed: s.Seed, Checkpoint: checkpoint.Path(ckptDir, ckey)}
	}
	return cells, jobs, nil
}

// Run is one durable attempt of cell c (see checkpoint.Run) — how the
// daemon's workers and rowsweep both simulate a cell. The system comes
// from the front end's set-up cache: the policies of one value share a
// trace set and a warm image (a resumed cell too — the checkpoint then
// overwrites the image).
func (s SweepSpec) Run(ctx context.Context, c Cell, setup *experiments.Setup, ckptDir string, every uint64, found func(cycle uint64, warn error)) (sim.Result, error) {
	wp, err := s.WorkloadParams(c)
	if err != nil {
		return sim.Result{}, err
	}
	var key string
	if ckptDir != "" {
		if key, err = s.ContentKey(c); err != nil {
			return sim.Result{}, err
		}
	}
	return checkpoint.Run(ctx, ckptDir, every, key, func(ck ...sim.Option) (*sim.System, error) {
		return setup.System(ctx, s.Config(c), wp, s.Cores, s.Instrs, s.Seed, ck...)
	}, found)
}

// FormatValue renders a sweep value as cell keys and table rows spell
// it: no trailing zeros, integers without a decimal point.
func FormatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
