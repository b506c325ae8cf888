#!/bin/sh
# Runs the allocation-guarded benchmarks and fails when any regresses past its
# budget:
#   - BenchmarkEnvStep / BenchmarkRolloutStep must report 0 allocs/op (the
#     simulator core and the inference fast path are allocation-free), and
#     so must every BenchmarkCollectEpisode row (an episode collected into a
#     warm buffer, at 1 and 2 procs: its states valued on the caller and on
#     the value lane), and so must BenchmarkMetrics (a metrics read is a pass
#     over the placement fold), and
#   - BenchmarkStreamedEpisode's decision loop on a fresh environment must
#     not allocate with the task count: its 8000-task row may allocate at
#     most STREAM_BYTES_PER_TASK (4) bytes per task more than its 1000-task
#     row (a record of even one int64 per placement is 8; what it allocates
#     is buffers sized by the cluster, the queue and the distinct waits), and
#   - every BenchmarkPPOUpdate row (paper and narrow width on dense states,
#     padded on a per-VM cluster's, at 1, 2 and 4 procs: the sequential path
#     beside the actor/critic lanes) must stay
#     within PPO_ALLOC_BUDGET (2) allocs/op. The update keeps its staging
#     in agent-owned scratch and the critic lane's channels on the agent,
#     so a warm update allocates nothing; what a 5-iteration row can still
#     show is the runtime allocating a goroutine for a lane start when the
#     last lane exited on another proc (0–2 allocs/op over 240 rows at 2
#     and 4 procs, where channels and a closure per Update read 3–5), and
#   - every BenchmarkOrthogonalScaled row must stay within 2 allocs/op: the
#     returned fanIn x fanOut x·W weight's header and data. The draws and the
#     Gram–Schmidt block live in pooled scratch, and the result is written
#     transposed, so a second result-sized allocation (a returning .T() copy,
#     say) fails here, and
#   - every BenchmarkFedAggregate row must report 0 allocs/op (the
#     federation data plane — the wire session's two ends plus pooled
#     aggregation, on the identity tier and on i8+delta — reuses encoder
#     scratch, per-client decode buffers and references, and the payload
#     arena every round), and so must every BenchmarkUpload row (a client
#     flattens its networks into the upload buffer it keeps), and
#   - BenchmarkAsyncReply must report 0 allocs/op (an async server answers a
#     non-participant by framing the committed global in place and copying
#     the frame, which is sent after the lock is released, into the reply
#     buffer its connection reuses), and
#   - BenchmarkRPCSync — one loopback Sync through the binary RPC codec —
#     must stay within 1 alloc/op: the arguments the client boxes for
#     rpcClient.Call. The server reads each call into its connection's
#     reused argument and reply slots, uploads and replies into reused
#     buffers, and allocates nothing else, and
#   - BenchmarkClientFootprint — 32 clients of the swarm's recipe after one
#     activation each (the initial global decoded into the client's delta
#     reference, an episode, its Update, an upload encoded on i8+delta and
#     decoded by the server end into one shared buffer), then a forced GC —
#     must report at most FOOTPRINT_BUDGET live bytes per client: DESIGN §8
#     "Per-client footprint"'s total, 567 KiB, plus 10 %. An agent that
#     keeps its gradients, a state-wide staging matrix or a delta buffer
#     between updates again (865 KiB per client before they went), or a wire
#     end that keeps a payload-sized decode buffer beside its reference
#     again (686 KiB), fails it, and
#   - BenchmarkServerFootprint — an async server on the swarm's codec after
#     32 clients synced twice each across eight commits, then a forced GC —
#     must report at most SERVER_FOOTPRINT_BUDGET live bytes per client:
#     DESIGN §8's 70 KiB, plus 10 %. A server that decodes uploads into a
#     buffer per client, or retains results as payload copies instead of
#     frames, again (144 KiB) fails it.
#
# Usage: bench_alloc_guard.sh [all|env|update|agg]
#   all    (default) run every guarded benchmark
#   env    only the zero-alloc env/rollout/collector guards (`make bench-env`)
#   update only the PPOUpdate and OrthogonalScaled budget guards (`make bench-update`)
#   agg    only the federation data-plane and footprint guards (`make bench-agg`)
#
# BENCHTIME defaults to a short fixed iteration count so `make ci` stays
# fast; run with BENCHTIME=2s for a full measurement.
set -eu

MODE="${1:-all}"
BENCHTIME="${BENCHTIME:-200x}"
PPO_BENCHTIME="${PPO_BENCHTIME:-5x}"
PPO_ALLOC_BUDGET="${PPO_ALLOC_BUDGET:-2}"
STREAM_BYTES_PER_TASK=4
FOOTPRINT_BUDGET=639000
SERVER_FOOTPRINT_BUDGET=79000
GO="${GO:-go}"
out="$(mktemp)"
trap 'rm -f "$out"' EXIT

: > "$out"
if [ "$MODE" = "all" ] || [ "$MODE" = "env" ]; then
	"$GO" test ./internal/cloudsim/ -run '^$' \
		-bench 'BenchmarkEnvStep|BenchmarkObserve|BenchmarkEpisode|BenchmarkMetrics' \
		-benchtime "$BENCHTIME" -benchmem | tee -a "$out"
	"$GO" test ./internal/cloudsim/ -run '^$' \
		-bench 'BenchmarkStreamedEpisode' \
		-benchtime 2x -benchmem | tee -a "$out"
	"$GO" test ./internal/rl/ -run '^$' \
		-bench 'BenchmarkRolloutStep' \
		-benchtime "$BENCHTIME" -benchmem | tee -a "$out"
	"$GO" test ./internal/rl/ -run '^$' \
		-bench 'BenchmarkCollectEpisode' -cpu 1,2 \
		-benchtime "$BENCHTIME" -benchmem | tee -a "$out"
fi
if [ "$MODE" = "all" ] || [ "$MODE" = "update" ]; then
	"$GO" test ./internal/rl/ -run '^$' \
		-bench 'BenchmarkPPOUpdate' -cpu 1,2,4 \
		-benchtime "$PPO_BENCHTIME" -benchmem | tee -a "$out"
	"$GO" test ./internal/tensor/ -run '^$' \
		-bench 'BenchmarkOrthogonalScaled' \
		-benchtime "$BENCHTIME" -benchmem | tee -a "$out"
fi
if [ "$MODE" = "all" ] || [ "$MODE" = "agg" ]; then
	"$GO" test ./internal/fed/ -run '^$' \
		-bench 'BenchmarkFedAggregate|BenchmarkUpload' \
		-benchtime "$BENCHTIME" -benchmem | tee -a "$out"
	"$GO" test ./internal/fednet/ -run '^$' \
		-bench 'BenchmarkAsyncReply|BenchmarkRPCSync' \
		-benchtime "$BENCHTIME" -benchmem | tee -a "$out"
	"$GO" test ./internal/fednet/ -run '^$' \
		-bench 'BenchmarkClientFootprint' \
		-benchtime 1x | tee -a "$out"
	"$GO" test ./internal/fednet/ -run '^$' \
		-bench 'BenchmarkServerFootprint' \
		-benchtime 1x | tee -a "$out"
fi

awk -v ppo_budget="$PPO_ALLOC_BUDGET" -v stream_budget="$STREAM_BYTES_PER_TASK" -v footprint_budget="$FOOTPRINT_BUDGET" -v server_budget="$SERVER_FOOTPRINT_BUDGET" '
/^Benchmark(EnvStep|RolloutStep|CollectEpisode|FedAggregate|Metrics|Upload|AsyncReply)/ {
	for (i = 2; i <= NF; i++) {
		if ($i == "allocs/op" && $(i-1) != "0") {
			printf "FAIL: %s reports %s allocs/op (want 0)\n", $1, $(i-1)
			bad = 1
		}
	}
}
/^BenchmarkPPOUpdate/ {
	for (i = 2; i <= NF; i++) {
		if ($i == "allocs/op" && $(i-1) + 0 > ppo_budget) {
			printf "FAIL: %s reports %s allocs/op (budget %d)\n", $1, $(i-1), ppo_budget
			bad = 1
		}
	}
}
/^BenchmarkOrthogonalScaled/ {
	for (i = 2; i <= NF; i++) {
		if ($i == "allocs/op" && $(i-1) + 0 > 2) {
			printf "FAIL: %s reports %s allocs/op (budget 2)\n", $1, $(i-1)
			bad = 1
		}
	}
}
/^BenchmarkRPCSync/ {
	for (i = 2; i <= NF; i++) {
		if ($i == "allocs/op" && $(i-1) + 0 > 1) {
			printf "FAIL: %s reports %s allocs/op (budget 1)\n", $1, $(i-1)
			bad = 1
		}
	}
}
/^BenchmarkClientFootprint/ {
	for (i = 2; i <= NF; i++) {
		if ($i == "live-B/client" && $(i-1) + 0 > footprint_budget) {
			printf "FAIL: %s reports %s live bytes per client (budget %d)\n", $1, $(i-1), footprint_budget
			bad = 1
		}
	}
}
/^BenchmarkServerFootprint/ {
	for (i = 2; i <= NF; i++) {
		if ($i == "live-B/client" && $(i-1) + 0 > server_budget) {
			printf "FAIL: %s reports %s live bytes per client (budget %d)\n", $1, $(i-1), server_budget
			bad = 1
		}
	}
}
/^BenchmarkStreamedEpisode\/tasks=/ {
	n = $1
	sub(/^BenchmarkStreamedEpisode\/tasks=/, "", n)
	sub(/-[0-9]+$/, "", n)
	for (i = 2; i <= NF; i++) {
		if ($i == "B/op") {
			streamBytes[n + 0] = $(i-1)
		}
	}
}
END {
	if ((1000 in streamBytes) && (8000 in streamBytes)) {
		per = (streamBytes[8000] - streamBytes[1000]) / 7000
		if (per > stream_budget) {
			printf "FAIL: BenchmarkStreamedEpisode allocates %.1f B per extra task (budget %d): %d B/op at 1000 tasks, %d at 8000\n", per, stream_budget, streamBytes[1000], streamBytes[8000]
			bad = 1
		}
	}
	exit bad
}
' "$out"
case "$MODE" in
all) echo "bench-alloc-guard: EnvStep/RolloutStep/CollectEpisode/Metrics/FedAggregate/Upload/AsyncReply allocation-free, a streamed episode's loop within $STREAM_BYTES_PER_TASK B per task, PPOUpdate within $PPO_ALLOC_BUDGET allocs/op, OrthogonalScaled within 2, RPCSync within 1, a swarm client within $FOOTPRINT_BUDGET live bytes, an async server within $SERVER_FOOTPRINT_BUDGET per client" ;;
env) echo "bench-alloc-guard: EnvStep/RolloutStep/CollectEpisode/Metrics are allocation-free, a streamed episode's loop within $STREAM_BYTES_PER_TASK B per task" ;;
update) echo "bench-alloc-guard: PPOUpdate within $PPO_ALLOC_BUDGET allocs/op, OrthogonalScaled within 2" ;;
agg) echo "bench-alloc-guard: FedAggregate data plane, Upload and AsyncReply are allocation-free, RPCSync within 1 alloc/op, a swarm client within $FOOTPRINT_BUDGET live bytes, an async server within $SERVER_FOOTPRINT_BUDGET per client" ;;
esac
