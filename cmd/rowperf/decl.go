package main

// The names in this file are the benchmark's vocabulary: later issues
// cite workloads and metrics by them, and BENCHMARK.json is generated
// from these tables (rowperf -manifest), so the two cannot drift.

// workloadDecl is one benchmark workload and the reason it exists.
type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDecls = []workloadDecl{
	{"figcells-8c", "figure regeneration at gate scale: 36 short 8-core cells per unit, setup about half of each, so Reset/Warm/allocation work shows and run-loop work shows least"},
	{"contended-32c", "the paper's headline case, hot contended fetch-and-add on 32 warm cores under eager and RoW: run loop dominates and core is most of it, setup is amortised"},
	{"coldmiss-32c", "canneal on 32 cores with empty caches: atomics miss to DRAM, so cache, banks and mesh carry the loop and there is no Warm at all"},
	{"lockspin-32c", "test-and-set spin lock on 32 cores: 40% of cycles are skippable, the one workload where the event scheduler beats the cycle loop"},
	{"ckpt-8c", "the write side of sim: snapshot, JSON encode, CRC, fsync, .prev rotation and resume cost several times the 8-core run they protect"},
	{"serve-sweeps", "the rowserve daemon path: 2 tenants submit 9-cell sweeps over HTTP to 2 workers; durable admission, fair-share queue, memo (a quarter of cells hit), journal"},
}

// metricDecl is one metric: its name, unit and which direction is
// better. Bound is the share of the parent's median by which an
// end-to-end metric may worsen before it counts as a regression (0 for
// per-layer metrics, which have none). Count marks simulated or
// program-made counts, which are deterministic and must repeat
// exactly; everything else is host time or host memory.
type metricDecl struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Count  bool
	Doc    string
}

const (
	higher = "higher"
	lower  = "lower"
)

// endToEnd are the metrics a user of the simulator or the daemon
// sees. failed_frac is the ninth: it is 0 on a healthy tree, so the
// benchmark contract carries it as failed/attempted beside the
// metrics rather than as a bounded metric. Host time is in reference
// seconds (ref.go) everywhere but in setup_s.
var endToEnd = []metricDecl{
	{"setup_s", "s", lower, 0.25, false, "input generation for the first unit, temp dirs, daemon open + /readyz and the warm-up unit; median of three set-ups"},
	{"sim_instrs_per_s", "1/s", higher, 0.25, false, "simulated committed instructions delivered per second of host time over the whole unit"},
	{"sim_cycles_per_s", "1/s", higher, 0.25, false, "simulated cycles (Result.Cycles) per second of host time over the whole unit"},
	{"cells_per_s", "1/s", higher, 0.25, false, "completed simulation cells per second of host time"},
	{"alloc_mb_per_cell", "MB", lower, 0.05, false, "MemStats.TotalAlloc delta per completed cell, median repetition"},
	{"peak_rss_mb", "MB", lower, 0.25, false, "VmHWM of the workload's process when it reports"},
	{"sweep_latency_p50_ms", "ms", lower, 0.25, false, "serve-sweeps: POST sent to done observed, per sweep; elsewhere the host time of one unit"},
	{"sweep_latency_p90_ms", "ms", lower, 0.25, false, "the same samples' 90th percentile (quotable as a tail only where n >= 100, i.e. on serve-sweeps)"},
}

// perLayer is the ledger: one block per package of this repo, host
// time attached to each hop, measured from outside by timing calls
// into the layer's public functions.
var perLayer = []metricDecl{
	{"workload.generate_ms", "ms", lower, 0, false, "workload.Generate for the probe cells"},
	{"workload.generate_ns_per_instr", "ns", lower, 0, false, "the same per generated instruction"},

	{"sim.new_ms", "ms", lower, 0, false, "sim.New with WarmCaches=false"},
	{"sim.warm_ms", "ms", lower, 0, false, "System.Warm (0 where caches start cold)"},
	{"sim.run_ms", "ms", lower, 0, false, "System.Run under the event scheduler"},
	{"sim.setup_share", "frac", lower, 0, false, "(generate+new+warm) / (generate+new+warm+run)"},
	{"sim.run_ns_per_visit", "ns", lower, 0, false, "run time per visited cycle"},
	{"sim.run_ns_per_instr", "ns", lower, 0, false, "run time per committed instruction"},
	{"sim.new_alloc_mb", "MB", lower, 0, false, "TotalAlloc delta across sim.New"},
	{"sim.warm_alloc_mb", "MB", lower, 0, false, "TotalAlloc delta across System.Warm"},
	{"sim.run_alloc_mb", "MB", lower, 0, false, "TotalAlloc delta across System.Run"},
	{"sim.run_mallocs", "count", lower, 0, false, "Mallocs delta across System.Run"},
	{"sim.snapshot_ms", "ms", lower, 0, false, "System.Snapshot mid-run, per snapshot (ckpt-8c)"},
	{"sim.restore_ms", "ms", lower, 0, false, "System.RestoreSnap into a fresh system (ckpt-8c)"},
	{"sim.cycle_sched_wall_ratio", "ratio", lower, 0, false, "Run wall under SchedCycle / under SchedEvent"},
	{"sim.cycles", "count", lower, 0, true, "simulated cycles of the probe cells"},
	{"sim.cycles_visited", "count", lower, 0, true, "cycles the event scheduler visited"},
	{"sim.skip_eff", "frac", higher, 0, true, "1 - visited/cycles"},
	{"sim.committed", "count", higher, 0, true, "committed instructions"},
	{"sim.ipc", "ratio", higher, 0, true, "committed / cycles"},

	{"interconnect.tick_share", "frac", lower, 0, false, "Mesh.Tick share of the lock-step loop"},
	{"interconnect.tick_ns_per_cycle", "ns", lower, 0, false, "Mesh.Tick per simulated cycle"},
	{"interconnect.msgs", "count", lower, 0, true, "messages sent over the mesh"},
	{"interconnect.msgs_per_kinstr", "ratio", lower, 0, true, "messages per 1000 committed instructions"},
	{"interconnect.avg_hops", "ratio", lower, 0, true, "mean hops per message"},

	{"coherence.handle_share", "frac", lower, 0, false, "bank phase (HasMail/Drain/Handle) share of the lock-step loop"},
	{"coherence.handle_ns_per_msg", "ns", lower, 0, false, "bank phase per handled message"},
	{"coherence.msgs_handled", "count", lower, 0, true, "messages handled by the banks"},
	{"coherence.gets", "count", lower, 0, true, "GetS requests"},
	{"coherence.getx", "count", lower, 0, true, "GetX requests"},
	{"coherence.stalled", "count", lower, 0, true, "requests queued behind a blocked line"},
	{"coherence.l3_hits", "count", higher, 0, true, "L3 hits"},
	{"coherence.l3_misses", "count", lower, 0, true, "L3 misses (DRAM fills)"},

	{"cache.tick_share", "frac", lower, 0, false, "private-cache phase (Deliver+Tick) share of the lock-step loop"},
	{"cache.tick_ns_per_tick", "ns", lower, 0, false, "private-cache phase per cache tick"},
	{"cache.accesses", "count", lower, 0, true, "demand accesses"},
	{"cache.l1_hits", "count", higher, 0, true, "L1D hits"},
	{"cache.l2_hits", "count", higher, 0, true, "L2 hits"},
	{"cache.misses", "count", lower, 0, true, "private-hierarchy misses"},
	{"cache.miss_lat_cycles", "cycles", lower, 0, true, "mean demand-miss fill latency"},
	{"cache.mshr_full", "count", lower, 0, true, "misses delayed by full fill buffers"},
	{"cache.ext_stalls", "count", lower, 0, true, "external requests stalled on a locked line"},
	{"cache.invalidations", "count", lower, 0, true, "invalidations received"},
	{"cache.prefetches", "count", lower, 0, true, "prefetches issued"},
	{"cache.writebacks", "count", lower, 0, true, "writebacks"},

	{"sram.lookup_ns_per_op", "ns", lower, 0, false, "Array.Lookup replaying core 0's address stream (L1D and L3-bank geometry)"},
	{"sram.insert_ns_per_op", "ns", lower, 0, false, "Array.Insert of the replay's misses"},
	{"sram.replay_hit_rate", "frac", higher, 0, true, "hits / lookups of the replay"},

	{"core.tick_share", "frac", lower, 0, false, "core phase share of the lock-step loop"},
	{"core.tick_ns_per_tick", "ns", lower, 0, false, "core phase per live-core tick"},
	{"core.ns_per_instr", "ns", lower, 0, false, "core phase per committed instruction"},
	{"core.atomics", "count", lower, 0, true, "committed locking atomics"},
	{"core.eager_issued", "count", lower, 0, true, "atomics issued eagerly"},
	{"core.lazy_issued", "count", lower, 0, true, "atomics issued lazily"},
	{"core.forwarded_atomics", "count", lower, 0, true, "atomics flipped eager by a matching store"},
	{"core.forced_releases", "count", lower, 0, true, "locks broken by the progress guarantee"},
	{"core.lq_squashes", "count", lower, 0, true, "load-queue squashes"},
	{"core.mispredicts", "count", lower, 0, true, "branch mispredicts"},
	{"core.lock_hold_p99_cycles", "cycles", lower, 0, true, "99th percentile lock-window length (max over probe cells)"},

	{"predictor.accuracy", "frac", higher, 0, true, "contention-predictor accuracy (mean over RoW probe cells)"},
	{"predictor.predicted_lazy", "count", lower, 0, true, "atomics predicted contended"},

	{"model.row_over_eager", "ratio", lower, 0, true, "contended-32c: RoW cycles / eager cycles on sps; informational"},

	{"experiments.fig1_ms", "ms", lower, 0, false, "span around experiments.Fig1 on the shared runner"},
	{"experiments.fig4_ms", "ms", lower, 0, false, "experiments.Fig4"},
	{"experiments.fig5_ms", "ms", lower, 0, false, "experiments.Fig5"},
	{"experiments.fig6_ms", "ms", lower, 0, false, "experiments.Fig6"},
	{"experiments.fig9_ms", "ms", lower, 0, false, "experiments.Fig9"},
	{"experiments.fig10_ms", "ms", lower, 0, false, "experiments.Fig10"},
	{"experiments.fig11_ms", "ms", lower, 0, false, "experiments.Fig11"},
	{"experiments.fig12_ms", "ms", lower, 0, false, "experiments.Fig12"},
	{"experiments.fig13_ms", "ms", lower, 0, false, "experiments.Fig13"},
	{"experiments.cells_run", "count", lower, 0, true, "cells the shared runner simulated"},
	{"experiments.memo_hit_frac", "frac", higher, 0, true, "1 - cells_run / cells the nine figures need standing alone"},

	{"checkpoint.save_ms", "ms", lower, 0, false, "one Saver callback: encode, write, fsync, rotate"},
	{"checkpoint.encode_ms", "ms", lower, 0, false, "checkpoint.Encode in memory"},
	{"checkpoint.load_ms", "ms", lower, 0, false, "checkpoint.Load: read, CRC, decode"},
	{"checkpoint.overhead_ratio", "ratio", lower, 0, false, "unit wall with checkpointing / the same cell without"},
	{"checkpoint.bytes", "bytes", lower, 0, true, "size of one checkpoint file"},
	{"checkpoint.saves", "count", lower, 0, true, "saves per unit"},

	{"lifecycle.append_us_per_record", "us", lower, 0, false, "lifecycle.Create + 1000 appends + Close in a temp dir"},

	{"serve.submit_ms_p50", "ms", lower, 0, false, "POST /v1/sweeps round trip (durable admission)"},
	{"serve.results_fetch_ms_p50", "ms", lower, 0, false, "GET /v1/sweeps/{id}/results round trip"},
	{"serve.cell_service_ms", "ms", lower, 0, false, "workers x wall / cells executed"},
	{"serve.cells_executed", "count", lower, 0, true, "cells computed by a worker, per unit"},
	{"serve.cells_from_cache", "count", higher, 0, true, "cells served by the memo, per unit"},
	{"serve.cache_hit_rate", "frac", higher, 0, true, "memo hits / claims, per unit"},
	{"serve.retries", "count", lower, 0, true, "attempts beyond the first"},
	{"serve.rejected_429", "count", lower, 0, true, "submissions shed by admission control"},

	{"host.gc_cycles", "count", lower, 0, false, "GC cycles per untraced unit"},
	{"host.gc_pause_ms", "ms", lower, 0, false, "GC pause total per untraced unit"},

	{"trace.overhead_ratio", "ratio", lower, 0, false, "traced unit wall / untraced unit wall"},
	{"trace.driver_vs_run_ratio", "ratio", lower, 0, false, "lock-step driver loop wall / System.Run under SchedCycle"},
}

// manifest is the BENCHMARK.json document, keys exactly as the
// benchmark contract fixes them.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []workloadDecl   `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// runSeconds is how long one contract run measures. The driver makes
// 4 + 22 x 6 runs inside 3420 s, so a run with its three set-ups and
// its verification has about 24 s.
const runSeconds = 12

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "cmd/rowperf/bench.sh"},
		Paths:      []string{"cmd/rowperf"},
		RunSeconds: runSeconds,
		Workloads:  workloadDecls,
	}
	for _, d := range endToEnd {
		b := d.Bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{d.Name, d.Unit, d.Better, &b})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{d.Name, d.Unit, d.Better, nil})
	}
	return m
}
