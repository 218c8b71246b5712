package main

// metricSpec declares one metric: BENCHMARK.json repeats these lists
// (a test keeps the two in step), and a run must emit exactly the
// end-to-end set untraced and exactly the per-layer set traced.
type metricSpec struct {
	name, unit, better string
	// note says what the metric measures and, for a layer metric, which
	// end-to-end metric it should move on which workload.
	note string
}

var endToEndSpecs = []metricSpec{
	{"verdict_s_p50", "s", "lower", "median wall time from request to a verified-format verdict document in the caller's hands"},
	{"jobs_per_s", "1/s", "higher", "jobs completed per second of window wall time"},
	{"job_rss_mb", "MiB", "lower", "resident set of the workload's process as a job completes, median over the window's jobs"},
	{"setup_s", "s", "lower", "median of three set-ups: fresh disk, daemon start, protocol resolution, golden load, warm-up ops"},
}

var perLayerSpecs = []metricSpec{
	{"trace_overhead", "ratio", "lower", "traced / untraced verdict_s_p50, both windows in the traced run"},
	{"verdict_s_p90", "s", "lower", "p90 verdict latency; 0 unless the window has >= 100 jobs (svc-small)"},
	{"peak_rss_mb", "MiB", "lower", "VmHWM of the process after the untraced window; a maximum, so it repeats less well than job_rss_mb"},

	{"sim.appendkey_ns", "ns", "lower", "Keyer.AppendKey per config -> jobs_per_s on ram-large, tiny-sweep; none on svc-small"},
	{"sim.step_ns", "ns", "lower", "StepInto+UndoStep per config -> jobs_per_s on ram-large, tiny-sweep"},
	{"sim.clone_ns", "ns", "lower", "CloneInto per config -> jobs_per_s on ram-large"},
	{"sim.key_bytes", "B", "lower", "mean visited-set key length -> job_rss_mb on ram-large, explore.spill.bytes_on_disk on spill-evict"},

	{"explore.sharded.emits_per_s", "1/s", "higher", "RunSharded over a synthetic graph, no sim -> jobs_per_s on ram-large"},
	{"explore.sharded.dedup_ratio", "ratio", "higher", "share of synthetic emissions deduplicated"},
	{"explore.dedup_ratio", "ratio", "higher", "DedupHits / Generated of the workload's engine run"},
	{"explore.handoff_items_per_config", "ratio", "lower", "cross-shard items per config -> verdict_s_p50 on ram-large"},
	{"explore.recycled_batch_ratio", "ratio", "higher", "hand-off batches reused from arenas"},
	{"explore.peak_frontier", "count", "lower", "high-water mark of pending configs -> job_rss_mb on ram-large"},
	{"explore.key_bytes", "B", "lower", "interned key bytes at the end of the run -> job_rss_mb on ram-large"},
	{"explore.spill.flushes", "count", "lower", "RAM->disk evictions -> verdict_s_p50 on spill-evict, svc-medium; 0 on ram-large"},
	{"explore.spill.compactions", "count", "lower", "run merges -> verdict_s_p50 on spill-evict"},
	{"explore.spill.lookups_per_config", "ratio", "lower", "disk-tier membership probes per config -> verdict_s_p50 on spill-evict, svc-medium; 0 on ram-large"},
	{"explore.spill.lookup_hit_ratio", "ratio", "higher", "share of disk probes that found the key"},
	{"explore.spill.frontier_spilled", "count", "lower", "pending items written to segment files"},
	{"explore.spill.checkpoints", "count", "lower", "manifests written -> verdict_s_p50 on svc-medium"},
	{"explore.spill.bytes_on_disk", "B", "lower", "key bytes resident in run files at the end of the run"},

	{"valency.serial.check_s", "s", "lower", "ladder: serial Check of the reference job -> verdict_s_p50 on tiny-sweep"},
	{"valency.sharded.check_s", "s", "lower", "ladder: Check(Workers 2) -> verdict_s_p50 on ram-large"},
	{"valency.spill_ram.check_s", "s", "lower", "ladder: CheckSpill, no budget, checkpoints off"},
	{"valency.spill_ckpt.check_s", "s", "lower", "ladder: CheckSpill with checkd's options -> verdict_s_p50 on svc-medium"},
	{"valency.spill_evict.check_s", "s", "lower", "ladder: CheckSpill, 64 KiB hot set -> verdict_s_p50 on spill-evict"},
	{"valency.report_json_s", "s", "lower", "Report.JSON().Encode() of the reference job"},
	{"valency.allocs_per_config", "ratio", "lower", "heap allocations per config around the untraced window"},
	{"valency.alloc_bytes_per_config", "B", "lower", "heap bytes allocated per config around the untraced window -> job_rss_mb"},
	{"valency.configs_per_s", "1/s", "higher", "configurations explored per second of window wall time; 0 on tiny-sweep, whose entry point reports none"},

	{"ladder.sharded_over_serial", "ratio", "lower", "base valency.serial.check_s"},
	{"ladder.spill_ram_over_sharded", "ratio", "lower", "base valency.sharded.check_s"},
	{"ladder.spill_ckpt_over_spill_ram", "ratio", "lower", "base valency.spill_ram.check_s"},
	{"ladder.spill_evict_over_spill_ckpt", "ratio", "lower", "base valency.spill_ckpt.check_s"},
	{"ladder.service_over_spill_evict", "ratio", "lower", "base valency.spill_evict.check_s"},
	{"ladder.dist_over_service", "ratio", "lower", "base service.alone.verdict_s"},

	{"frame.creates_per_job", "ratio", "lower", "files created per job -> verdict_s_p50 on svc-small; 0 on ram-large, tiny-sweep, dist-loopback"},
	{"frame.syncs_per_job", "ratio", "lower", "fsyncs per job -> verdict_s_p50, jobs_per_s on svc-small"},
	{"frame.renames_per_job", "ratio", "lower", "renames per job"},
	{"frame.bytes_written_per_job", "B", "lower", "bytes written per job -> verdict_s_p50 on spill-evict"},
	{"frame.bytes_read_per_job", "B", "lower", "bytes read per job -> verdict_s_p50 on spill-evict"},
	{"frame.sync_s_per_job", "s", "lower", "time in fsync per job -> verdict_s_p50 on svc-small, svc-medium"},
	{"frame.write_s_per_job", "s", "lower", "time in write per job"},
	{"frame.read_s_per_job", "s", "lower", "time in read per job -> verdict_s_p50 on spill-evict, svc-medium"},
	{"frame.write_file_atomic_s", "s", "lower", "WriteFileAtomic of a 1 KiB record, median -> verdict_s_p50 on svc-small"},

	{"service.submit_s", "s", "lower", "Submit call, median -> verdict_s_p50 on svc-small"},
	{"service.queued_to_running_s", "s", "lower", "submitted -> first non-queued event, median"},
	{"service.running_to_done_s", "s", "lower", "first non-queued event -> terminal event, median"},
	{"service.artifact_get_s", "s", "lower", "Artifact call, median"},
	{"service.http_roundtrip_s", "s", "lower", "GET /v1/healthz, median"},
	{"service.store_put_s", "s", "lower", "Store.Put of a fresh document, direct call, median"},
	{"service.store_get_s", "s", "lower", "Store.Get, direct call, median"},
	{"service.verdict_doc_s", "s", "lower", "VerdictDocument of the reference report, median"},
	{"service.dedup_share", "ratio", "higher", "submissions answered from the job table"},
	{"service.store_dedup_share", "ratio", "higher", "executed jobs whose artifact another job had already stored"},
	{"service.engine_share", "ratio", "higher", "valency.spill_ckpt.check_s / service.alone.verdict_s: < 0.2 on svc-small, > 0.8 on svc-medium"},
	{"service.unattributed_share", "ratio", "lower", "1 - named client spans / verdict latency, median job"},
	{"service.alone.verdict_s", "s", "lower", "ladder: the reference job through the API, one caller, idle daemon"},

	{"dist.loopback.check_s", "s", "lower", "ladder: dist.Loopback of the reference job -> verdict_s_p50 on dist-loopback"},
	{"dist.batches_per_job", "ratio", "lower", "batches dispatched and acked per job"},
	{"dist.remote_items_per_config", "ratio", "lower", "frontier items shipped over the wire per config"},
	{"dist.checkpoints", "count", "lower", "coordinator snapshots written (0: no checkpoint path set)"},
	{"dist.vs_sharded_ratio", "ratio", "lower", "dist.loopback.check_s / valency.sharded.check_s, same job, same run"},

	{"hierarchy.machines_per_s", "1/s", "higher", "candidate machines examined per second -> jobs_per_s on tiny-sweep"},
	{"hierarchy.solvers", "count", "higher", "solvers found by the last sweep pair (exact: 36)"},
}

// metric is one measured value as the result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet builds a result's metrics from values by name: every spec
// gets an entry (0 when the layer does not run on this workload), and a
// value with no spec is a programming error.
func metricSet(specs []metricSpec, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(specs))
	for _, s := range specs {
		out[s.name] = metric{Value: values[s.name], Unit: s.unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			panic("bench: value for undeclared metric " + name)
		}
	}
	return out
}
