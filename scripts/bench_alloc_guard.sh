#!/bin/sh
# Runs the allocation-guarded benchmarks and fails when any regresses past its
# budget:
#   - BenchmarkEnvStep / BenchmarkRolloutStep must report 0 allocs/op (the
#     simulator core and the inference fast path are allocation-free), and
#   - every BenchmarkPPOUpdate row (paper and narrow width, at 1, 2 and 4
#     procs: the sequential path beside the actor/critic lanes) must stay
#     within PPO_ALLOC_BUDGET allocs/op (the batched update pipeline keeps
#     steady-state staging in agent-owned scratch; the few remaining allocs
#     are per-Update bookkeeping), and
#   - every BenchmarkFedAggregate row must report 0 allocs/op (the
#     federation data plane — the wire session's two ends plus pooled
#     aggregation, on the identity tier and on i8+delta — reuses encoder
#     scratch, per-client decode buffers and references, and the payload
#     arena every round).
#
# Usage: bench_alloc_guard.sh [all|env|update|agg]
#   all    (default) run every guarded benchmark
#   env    only the zero-alloc env/rollout guards (`make bench-env`)
#   update only the PPOUpdate budget guard (`make bench-update`)
#   agg    only the federation data-plane guard (`make bench-agg`)
#
# BENCHTIME defaults to a short fixed iteration count so `make ci` stays
# fast; run with BENCHTIME=2s for a full measurement.
set -eu

MODE="${1:-all}"
BENCHTIME="${BENCHTIME:-200x}"
PPO_BENCHTIME="${PPO_BENCHTIME:-5x}"
PPO_ALLOC_BUDGET="${PPO_ALLOC_BUDGET:-16}"
GO="${GO:-go}"
out="$(mktemp)"
trap 'rm -f "$out"' EXIT

: > "$out"
if [ "$MODE" = "all" ] || [ "$MODE" = "env" ]; then
	"$GO" test ./internal/cloudsim/ -run '^$' \
		-bench 'BenchmarkEnvStep|BenchmarkObserve|BenchmarkEpisode' \
		-benchtime "$BENCHTIME" -benchmem | tee -a "$out"
	"$GO" test ./internal/rl/ -run '^$' \
		-bench 'BenchmarkRolloutStep' \
		-benchtime "$BENCHTIME" -benchmem | tee -a "$out"
fi
if [ "$MODE" = "all" ] || [ "$MODE" = "update" ]; then
	"$GO" test ./internal/rl/ -run '^$' \
		-bench 'BenchmarkPPOUpdate' -cpu 1,2,4 \
		-benchtime "$PPO_BENCHTIME" -benchmem | tee -a "$out"
fi
if [ "$MODE" = "all" ] || [ "$MODE" = "agg" ]; then
	"$GO" test ./internal/fed/ -run '^$' \
		-bench 'BenchmarkFedAggregate' \
		-benchtime "$BENCHTIME" -benchmem | tee -a "$out"
fi

awk -v ppo_budget="$PPO_ALLOC_BUDGET" '
/^Benchmark(EnvStep|RolloutStep|FedAggregate)/ {
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
END { exit bad }
' "$out"
case "$MODE" in
all) echo "bench-alloc-guard: EnvStep/RolloutStep/FedAggregate allocation-free, PPOUpdate within $PPO_ALLOC_BUDGET allocs/op" ;;
env) echo "bench-alloc-guard: EnvStep/RolloutStep are allocation-free" ;;
update) echo "bench-alloc-guard: PPOUpdate within $PPO_ALLOC_BUDGET allocs/op" ;;
agg) echo "bench-alloc-guard: FedAggregate data plane is allocation-free" ;;
esac
