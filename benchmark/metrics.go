package main

// The four workloads. README.md says why each is here.
const (
	wFig15  = "fig15_table2"
	wTable3 = "table3_parallel"
	wStream = "stream_5000vm"
	wSwarm  = "swarm_104_async"
)

// The workload sets metrics are measured on; nil means all four.
var (
	onFig15    = []string{wFig15}
	onStream   = []string{wStream}
	onSwarm    = []string{wSwarm}
	onTrain    = []string{wFig15, wTable3}         // core.Train
	onFed      = []string{wFig15, wTable3, wSwarm} // anything federated; also: has training rollouts
	onNotSwarm = []string{wFig15, wTable3, wStream}
)

// metricDef declares one metric the benchmark emits. BENCHMARK.json lists the
// same names, units and directions (bench_test.go keeps the two in step); the
// fields it has no key for live only here.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// on lists the workloads the metric is measured on; nil means all four.
	// On any other workload a per-layer metric reads 0: that layer did no work.
	on []string
	// bound is the share of the baseline median by which the metric may get
	// worse before -compare calls it regressed. Per-layer metrics have none.
	bound float64
	// exact metrics are pure functions of the seed: -compare demands equality.
	exact bool
	// gated end-to-end metrics apply to every workload and are the
	// "end_to_end" list of BENCHMARK.json; the other end-to-end metrics apply
	// to some workloads only, so BENCHMARK.json carries them under "per_layer"
	// (its schema wants every end-to-end metric from every workload).
	gated bool
	// moves names the end-to-end metric a per-layer metric is expected to move.
	moves string
}

func (m metricDef) appliesTo(workload string) bool {
	if m.on == nil {
		return true
	}
	for _, w := range m.on {
		if w == workload {
			return true
		}
	}
	return false
}

// endToEnd are the twelve metrics a user of the system sees. The first six
// are defined on every workload and are gated by the driver; the rest are
// gated by -compare on the workloads they apply to.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, gated: true},
	{name: "wall_s", unit: "s", better: "lower", bound: 0.25, gated: true},
	{name: "cpu_s", unit: "s", better: "lower", bound: 0.25, gated: true},
	{name: "env_steps_per_s", unit: "1/s", better: "higher", bound: 0.25, gated: true},
	{name: "alloc_mb", unit: "MB", better: "lower", bound: 0.10, gated: true},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.15, gated: true},

	{name: "rounds_per_s", unit: "1/s", better: "higher", on: onSwarm, bound: 0.25},
	{name: "decision_us_p50", unit: "us", better: "lower", on: onStream, bound: 0.25},
	{name: "wire_bytes_per_round", unit: "B", better: "lower", on: onFed, exact: true},
	{name: "reward_last5", unit: "reward", better: "higher", on: onFed, bound: 0.07, exact: true},
	{name: "avg_response_slots", unit: "slots", better: "lower", on: onStream, bound: 0.02, exact: true},
	{name: "fail_share", unit: "ratio", better: "lower", exact: true},
}

// perLayer are the single-layer metrics of the traced run, by package.
var perLayer = []metricDef{
	// core
	{name: "core.train_s.ppo", unit: "s", better: "lower", on: onFig15, moves: "wall_s"},
	{name: "core.train_s.fedavg", unit: "s", better: "lower", on: onFig15, moves: "wall_s"},
	{name: "core.train_s.mfpo", unit: "s", better: "lower", on: onFig15, moves: "wall_s"},
	{name: "core.train_s.pfrldm", unit: "s", better: "lower", on: onTrain, moves: "wall_s"},
	{name: "core.sample_data_s", unit: "s", better: "lower", on: onTrain, moves: "setup_s"},
	{name: "core.build_clients_s", unit: "s", better: "lower", on: onTrain, moves: "setup_s"},
	// workload
	{name: "workload.sample_tasks_per_s", unit: "1/s", better: "higher", moves: "setup_s"},
	{name: "workload.source_pull_ns", unit: "ns", better: "lower", on: onStream, moves: "env_steps_per_s"},
	{name: "workload.source_pulls", unit: "count", better: "lower", on: onStream, exact: true, moves: "env_steps_per_s"},
	// cloudsim
	{name: "cloudsim.observe_ns", unit: "ns", better: "lower", moves: "env_steps_per_s"},
	{name: "cloudsim.step_ns", unit: "ns", better: "lower", moves: "env_steps_per_s"},
	{name: "cloudsim.observe_calls", unit: "count", better: "lower", exact: true, moves: "env_steps_per_s"},
	{name: "cloudsim.step_calls", unit: "count", better: "lower", exact: true, moves: "env_steps_per_s"},
	{name: "cloudsim.env_busy_s", unit: "s", better: "lower", moves: "env_steps_per_s"},
	{name: "cloudsim.reset_us", unit: "us", better: "lower", on: onFed, moves: "wall_s"},
	{name: "cloudsim.drain_ms", unit: "ms", better: "lower", on: onNotSwarm, moves: "wall_s"},
	{name: "cloudsim.wait_share", unit: "ratio", better: "lower", exact: true, moves: "env_steps_per_s"},
	{name: "cloudsim.firstfit_step_ns", unit: "ns", better: "lower", on: onStream, moves: "decision_us_p50"},
	{name: "cloudsim.decision_us_p99", unit: "us", better: "lower", on: onStream, moves: "decision_us_p50"},
	// rl
	{name: "rl.rollout_s", unit: "s", better: "lower", on: onFed, moves: "env_steps_per_s"},
	{name: "rl.update_s", unit: "s", better: "lower", on: onFed, moves: "wall_s"},
	{name: "rl.update_share", unit: "ratio", better: "lower", on: onFed, moves: "wall_s"},
	{name: "rl.infer_s", unit: "s", better: "lower", on: onFed, moves: "env_steps_per_s"},
	{name: "rl.select_action_ns", unit: "ns", better: "lower", on: onStream, moves: "decision_us_p50"},
	{name: "rl.update_ms_per_episode", unit: "ms", better: "lower", on: onFed, moves: "wall_s"},
	{name: "rl.update_us_per_transition", unit: "us", better: "lower", on: onFed, moves: "wall_s"},
	{name: "rl.transitions", unit: "count", better: "lower", on: onFed, exact: true, moves: "wall_s"},
	{name: "rl.update_probe_ms", unit: "ms", better: "lower", moves: "wall_s"},
	{name: "rl.update_probe_ms.dual", unit: "ms", better: "lower", moves: "wall_s"},
	{name: "rl.update_allocs_per_call", unit: "allocs", better: "lower", moves: "alloc_mb"},
	{name: "rl.update_allocs_per_call.dual", unit: "allocs", better: "lower", moves: "alloc_mb"},
	// nn
	{name: "nn.mlp_infer_ns", unit: "ns", better: "lower", moves: "decision_us_p50"},
	{name: "nn.mlp_infer_batch16_ns_per_row", unit: "ns", better: "lower", moves: "decision_us_p50"},
	{name: "nn.adam_step_us", unit: "us", better: "lower", moves: "wall_s"},
	{name: "nn.flatten_params_us", unit: "us", better: "lower", moves: "rounds_per_s"},
	{name: "nn.load_flat_params_us", unit: "us", better: "lower", moves: "rounds_per_s"},
	// autograd
	{name: "autograd.actor_fwdbwd_ms", unit: "ms", better: "lower", moves: "wall_s"},
	{name: "autograd.critic_fwdbwd_ms", unit: "ms", better: "lower", moves: "wall_s"},
	// tensor
	{name: "tensor.matmul_gflops", unit: "gflops", better: "higher", moves: "wall_s"},
	{name: "tensor.matmul_transa_gflops", unit: "gflops", better: "higher", moves: "wall_s"},
	{name: "tensor.tanh_ns_per_elem", unit: "ns", better: "lower", moves: "wall_s"},
	{name: "tensor.pool_gets", unit: "count", better: "lower", on: onFed, moves: "alloc_mb"},
	{name: "tensor.pool_hit_rate", unit: "ratio", better: "higher", on: onFed, moves: "alloc_mb"},
	// attn
	{name: "attn.weights_us.k5", unit: "us", better: "lower", moves: "rounds_per_s"},
	{name: "attn.weights_us.k8", unit: "us", better: "lower", moves: "rounds_per_s"},
	// fed
	{name: "fed.aggregate_s", unit: "s", better: "lower", on: onFed, moves: "rounds_per_s"},
	{name: "fed.aggregate_calls", unit: "count", better: "lower", on: onFed, exact: true, moves: "rounds_per_s"},
	{name: "fed.aggregate_ms_p50", unit: "ms", better: "lower", on: onFed, moves: "rounds_per_s"},
	{name: "fed.upload_s", unit: "s", better: "lower", on: onFed, moves: "rounds_per_s"},
	{name: "fed.download_s", unit: "s", better: "lower", on: onFed, moves: "rounds_per_s"},
	{name: "fed.round_overhead_ms_p50", unit: "ms", better: "lower", on: onTrain, moves: "wall_s"},
	{name: "fed.rounds", unit: "count", better: "lower", on: onTrain, exact: true, moves: "wall_s"},
	{name: "fed.participants_mean", unit: "count", better: "higher", on: onTrain, exact: true, moves: "wall_s"},
	{name: "fed.upload_drops", unit: "count", better: "lower", on: onTrain, exact: true, moves: "wall_s"},
	{name: "fed.download_drops", unit: "count", better: "lower", on: onTrain, exact: true, moves: "wall_s"},
	// fedcore
	{name: "fedcore.encode_us.identity", unit: "us", better: "lower", moves: "rounds_per_s"},
	{name: "fedcore.encode_us.f32", unit: "us", better: "lower", moves: "rounds_per_s"},
	{name: "fedcore.encode_us.i16", unit: "us", better: "lower", moves: "rounds_per_s"},
	{name: "fedcore.encode_us.i8", unit: "us", better: "lower", moves: "rounds_per_s"},
	{name: "fedcore.decode_us.identity", unit: "us", better: "lower", moves: "rounds_per_s"},
	{name: "fedcore.decode_us.f32", unit: "us", better: "lower", moves: "rounds_per_s"},
	{name: "fedcore.decode_us.i16", unit: "us", better: "lower", moves: "rounds_per_s"},
	{name: "fedcore.decode_us.i8", unit: "us", better: "lower", moves: "rounds_per_s"},
	{name: "fedcore.frame_bytes.identity", unit: "B", better: "lower", exact: true, moves: "wire_bytes_per_round"},
	{name: "fedcore.frame_bytes.f32", unit: "B", better: "lower", exact: true, moves: "wire_bytes_per_round"},
	{name: "fedcore.frame_bytes.i16", unit: "B", better: "lower", exact: true, moves: "wire_bytes_per_round"},
	{name: "fedcore.frame_bytes.i8", unit: "B", better: "lower", exact: true, moves: "wire_bytes_per_round"},
	{name: "fedcore.reduce_mean_us.k8", unit: "us", better: "lower", moves: "rounds_per_s"},
	{name: "fedcore.reduce_mean_us.k64", unit: "us", better: "lower", moves: "rounds_per_s"},
	{name: "fedcore.weighted_mix_us.k8", unit: "us", better: "lower", moves: "rounds_per_s"},
	{name: "fedcore.submit_commit_us", unit: "us", better: "lower", moves: "rounds_per_s"},
	{name: "fedcore.commits", unit: "count", better: "higher", on: onSwarm, exact: true, moves: "wire_bytes_per_round"},
	{name: "fedcore.stale_drops", unit: "count", better: "lower", on: onSwarm, exact: true, moves: "reward_last5"},
	{name: "fedcore.dup_drops", unit: "count", better: "lower", on: onSwarm, exact: true, moves: "wire_bytes_per_round"},
	{name: "fedcore.accept_ratio", unit: "ratio", better: "higher", on: onSwarm, exact: true, moves: "reward_last5"},
	{name: "fedcore.compression_ratio", unit: "ratio", better: "higher", on: onFed, exact: true, moves: "wire_bytes_per_round"},
	// fednet
	{name: "fednet.activation_ms_p50", unit: "ms", better: "lower", on: onSwarm, moves: "rounds_per_s"},
	{name: "fednet.activation_ms_p95", unit: "ms", better: "lower", on: onSwarm, moves: "rounds_per_s"},
	{name: "fednet.sync_self_ms_p50", unit: "ms", better: "lower", on: onSwarm, moves: "rounds_per_s"},
	{name: "fednet.dial_ms_mean", unit: "ms", better: "lower", on: onSwarm, moves: "setup_s"},
	{name: "fednet.final_fetch_ms", unit: "ms", better: "lower", on: onSwarm, moves: "setup_s"},
	{name: "fednet.retries", unit: "count", better: "lower", on: onSwarm, exact: true, moves: "rounds_per_s"},
	{name: "fednet.retry_share", unit: "ratio", better: "lower", on: onSwarm, exact: true, moves: "rounds_per_s"},
	// obs
	{name: "obs.sink_overhead_pct", unit: "pct", better: "lower", on: onFig15, moves: "wall_s"},
	{name: "obs.events_emitted", unit: "count", better: "lower", on: onFig15, exact: true, moves: "wall_s"},
	// the benchmark's own tracing
	{name: "trace.overhead_pct", unit: "pct", better: "lower"},
	{name: "trace.spans", unit: "count", better: "lower", exact: true},
	{name: "trace.coverage_pct", unit: "pct", better: "higher"},
}

// contractPerLayer is BENCHMARK.json's "per_layer" list: the end-to-end
// metrics that are not defined on every workload, then the layers.
func contractPerLayer() []metricDef {
	var out []metricDef
	for _, m := range endToEnd {
		if !m.gated {
			out = append(out, m)
		}
	}
	return append(out, perLayer...)
}

// contractEndToEnd is BENCHMARK.json's "end_to_end" list.
func contractEndToEnd() []metricDef {
	var out []metricDef
	for _, m := range endToEnd {
		if m.gated {
			out = append(out, m)
		}
	}
	return out
}

// findMetric looks a definition up by name in both lists.
func findMetric(name string) (metricDef, bool) {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if m.name == name {
				return m, true
			}
		}
	}
	return metricDef{}, false
}

func isEndToEnd(name string) bool {
	for _, m := range endToEnd {
		if m.name == name {
			return true
		}
	}
	return false
}
