# Developer targets for the PFRL-DM reproduction.
#
#   make ci         - the full pre-merge smoke check: vet (incl. the gofmt
#                     gate), staticcheck (when reachable), build,
#                     race-enabled tests (incl. the federation
#                     fault-tolerance suite and the simulator invariant
#                     harness), the tensor tests once more under
#                     GOAMD64=v3, one iteration of each perf
#                     microbenchmark, one smoke pass of the end-to-end
#                     benchmark, every figure runner twice at toy size
#                     (the two outputs must be identical), a
#                     /metrics endpoint smoke test, a 4-client
#                     barrier-federation chaos smoke, a 16-client
#                     async-federation one and a spec-driven federation on
#                     the ranked top-k layout
#   make test       - plain test suite (tier-1 gate)
#   make test-race  - federation layers + simulator invariants, race-enabled
#   make fuzz-smoke - a short run of every fuzz target
#   make bench      - full benchmark runs with allocation reporting
#   make results    - regenerate results_all.txt, the record EXPERIMENTS.md
#                     is scored from (under 2 min on 2 vCPUs)

GO ?= go
STATICCHECK_VERSION ?= 2025.1

.PHONY: ci vet staticcheck build test race test-race test-v3 fuzz-smoke bench bench-smoke bench-env bench-update bench-agg bench-e2e-smoke figs-smoke results metrics-smoke fed-smoke swarm-smoke spec-smoke

ci: vet staticcheck build race test-race test-v3 bench-smoke bench-env bench-update bench-agg bench-e2e-smoke figs-smoke metrics-smoke fed-smoke swarm-smoke spec-smoke

# gofmt -l prints the files it would rewrite; any output fails the gate.
vet:
	$(GO) vet ./...
	@unformatted="$$(gofmt -l cmd internal *.go)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt: not formatted (run gofmt -w):"; echo "$$unformatted"; exit 1; \
	fi

# Pinned staticcheck via `go run` so CI needs no separately-installed binary.
# The module proxy is unreachable in offline/sandboxed environments; probe
# first and skip (loudly) rather than fail the whole gate on a network error.
staticcheck:
	@if $(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) -version >/dev/null 2>&1; then \
		$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...; \
	else \
		echo "staticcheck: module proxy unreachable, skipping (run online to lint)"; \
	fi

# Start pfrl-node with -metrics-addr, scrape /metrics, and assert the core
# gauges are exposed. Guards the Prometheus endpoint end to end.
metrics-smoke:
	./scripts/metrics_smoke.sh

# The barrier regime end to end: a 4-client demo federation over loopback
# fednet with a round deadline, the lossy delta codec and the fault injector
# on from the very first install (the join), everything seeded. The async
# regime's counterpart is swarm-smoke below.
fed-smoke:
	$(GO) run ./cmd/pfrl-node -mode demo -clients 4 -rounds 2 -comm 1 -tasks 20 \
		-retries 8 -round-timeout 5s -seed 42 -codec i8 -codec-delta \
		-fault-spec "drop=0.08,dup=0.08,corrupt=0.05"

# A 16-client buffered-async swarm over loopback fednet with the fault
# injector on — drops, duplicates, and corruptions all active, everything
# seeded — on the codec the swarm_104_async benchmark runs (int8, delta
# references), so every failed install crosses the wire session's
# clear-and-go-absolute rule. Guards the asynchronous federation path end to
# end, and runs it twice — one proc, where the training segments take turns,
# and the default, where they overlap: stdout is a function of the seed alone,
# so the two must print the same bytes (the drive's wall-clock goes to stderr).
SWARM_SMOKE = $(GO) run ./cmd/pfrl-node -mode swarm -clients 16 -rounds 2 -buffer 4 \
	-staleness-bound 2 -seed 42 -codec i8 -codec-delta \
	-fault-spec "drop=0.08,dup=0.08,corrupt=0.05"

swarm-smoke:
	@a="$$(mktemp)" b="$$(mktemp)"; trap 'rm -f "$$a" "$$b"' EXIT; \
	GOMAXPROCS=1 $(SWARM_SMOKE) > "$$a" || exit 1; \
	$(SWARM_SMOKE) > "$$b" || exit 1; \
	cat "$$b"; \
	cmp "$$a" "$$b" || { echo "swarm-smoke: GOMAXPROCS=1 and the default print different runs"; exit 1; }

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The federation layers carry the concurrency-heavy fault-tolerance tests
# (round deadlines, retries, rejoin) and the shared round engine behind both
# paths; internal/rl carries the actor/critic lanes of the PPO update and
# its batched-vs-reference and lanes-vs-sequential update goldens;
# internal/cloudsim carries the simulator invariant harness (randomized
# episodes at 20 and 500 VMs). Run all of them race-enabled on every merge,
# and the tests that put goroutines inside or around an update, or around
# a client build (core's parallel BuildClients against its serial one), ten
# times over: a join that lets a shuffle overlap the critic lane, or a swarm Sync
# that overlaps its own client's training segment, is a race the detector
# only reports on the runs where the two actually overlap (-short skips the
# 104-client swarm, which the first line has run).
test-race:
	$(GO) test -race ./internal/attn/... ./internal/fedcore/... ./internal/fed/... ./internal/fednet/... ./internal/rl/... ./internal/cloudsim/...
	$(GO) test -race -count=10 -run 'TestConcurrentUpdate|TestConcurrentClientsSharedPool' ./internal/rl/
	$(GO) test -race -count=10 -run 'TestBuildClientsParallelMatchesSerial' ./internal/core/
	$(GO) test -race -short -count=10 -run 'TestSwarm' ./internal/fednet/

# The tensor kernels are pinned bit-for-bit against the scalar Go code and
# math.Tanh as the toolchain compiles them; GOAMD64=v3 is the build where
# that compilation is allowed to differ (fused multiply-add), so the pins run
# there too, with the autograd and nn pins built on them (the fused dense
# layer against its composition, the direct gradient path against the
# temporary one). On v3 the tanh kernel is compiled out (see tanh_amd64.go).
test-v3:
	GOAMD64=v3 $(GO) test ./internal/tensor/ ./internal/autograd/ ./internal/nn/

# Short deterministic-budget run of every fuzz target (go test allows one
# -fuzz pattern per invocation, hence one run per target).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzLoadCheckpoint -fuzztime 10s ./internal/nn
	$(GO) test -run '^$$' -fuzz FuzzLoadCheckpoint -fuzztime 10s ./internal/rl
	$(GO) test -run '^$$' -fuzz FuzzCSVTrace -fuzztime 10s ./internal/workload
	$(GO) test -run '^$$' -fuzz FuzzCSVStream -fuzztime 10s ./internal/workload
	$(GO) test -run '^$$' -fuzz FuzzParseSpec -fuzztime 10s ./internal/workload
	$(GO) test -run '^$$' -fuzz FuzzStreamSource -fuzztime 10s ./internal/cloudsim
	$(GO) test -run '^$$' -fuzz FuzzParseFaultSpec -fuzztime 10s ./internal/fed
	$(GO) test -run '^$$' -fuzz FuzzDecodeFrame -fuzztime 10s ./internal/fedcore
	$(GO) test -run '^$$' -fuzz FuzzTanhMatchesMath -fuzztime 10s ./internal/tensor
	$(GO) test -run '^$$' -fuzz FuzzMatMulMatchesScalar -fuzztime 10s ./internal/tensor
	$(GO) test -run '^$$' -fuzz FuzzOrthogonalScaled -fuzztime 10s ./internal/tensor

# One iteration of each microbenchmark: catches panics/regressions in the
# bench harness itself without paying for a full measurement run.
bench-smoke:
	$(GO) test ./internal/rl/ -run xxx -bench 'BenchmarkRolloutStep|BenchmarkPPOUpdate' -benchtime=1x -benchmem

# Simulator-core and rollout benchmarks under the allocation guard: fails
# if BenchmarkEnvStep (per-VM and ranked slot views) or BenchmarkRolloutStep
# report any allocs/op. Runs a short fixed iteration count in ci; override
# with BENCHTIME=2s for a full measurement.
bench-env:
	GO="$(GO)" ./scripts/bench_alloc_guard.sh env

# The PPOUpdate slice of the allocation guard alone — the fast pre-merge
# check for changes touching the update pipeline. It prints the paper-width
# and the narrow-width update at 1, 2 and 4 procs side by side (no timing
# gate: run-to-run drift on a shared box exceeds any useful threshold).
bench-update:
	GO="$(GO)" ./scripts/bench_alloc_guard.sh update

# The federation data-plane slice of the allocation guard: one steady-state
# round through the product's wire session (K client-end encodes, K
# server-end decodes, pooled aggregation, one frame, K reference rotations, K
# installs) must allocate nothing, on the identity tier and on i8+delta.
bench-agg:
	GO="$(GO)" BENCHTIME="$${BENCHTIME:-50x}" ./scripts/bench_alloc_guard.sh agg

bench:
	$(GO) test ./internal/rl/ -run xxx -bench 'BenchmarkRolloutStep|BenchmarkPPOUpdate' -benchmem
	$(GO) test ./internal/cloudsim/ -run xxx -bench 'BenchmarkEnvStep|BenchmarkObserve|BenchmarkEpisode' -benchmem

# One smoke-sized pass of each end-to-end benchmark workload (the repo's one
# performance ledger, see benchmark/README.md), with results routed to a
# scratch directory.
bench-e2e-smoke:
	$(GO) run ./benchmark -smoke -repeats 1 -out "$$(mktemp -d)"

# Every figure, table and ablation runner twice, end to end, at toy size,
# plus every example: the two that read an agent's public critic and α
# directly (a checkpoint round trip that exits 1 if the reloaded policy
# schedules differently, and a PFRL-DM federation), the quickstart, the
# Figure 20 newcomer and the hybrid-workload run — the one entry point that
# sets the SLO wait cost and target. It is the only ci step that executes the
# -exp harness, so a runner that stops working is seen here and not when
# someone next regenerates results_all.txt — and the two passes must print
# the same bytes (same seed, same bits: the harness's own determinism check,
# next to the benchmark's and the swarm's). Then the two CLIs no other step
# runs: workload-stats's Table 1, Figs. 2-5, summary and spec views at small
# -n, and pfrl-train on the two extension baselines at toy size.
figs-smoke:
	@a="$$(mktemp)" b="$$(mktemp)"; trap 'rm -f "$$a" "$$b"' EXIT; \
	for out in "$$a" "$$b"; do \
		$(GO) run ./cmd/pfrl-bench -exp all -tasks 20 -episodes 6 -comm 2 > "$$out" || exit 1; \
	done; \
	cat "$$a"; \
	cmp "$$a" "$$b" || { echo "figs-smoke: two passes of -exp all differ"; exit 1; }
	$(GO) run ./examples/checkpoint
	$(GO) run ./examples/federation
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/newagent
	$(GO) run ./examples/hybridworkloads
	$(GO) run ./cmd/workload-stats -table1
	for f in 2 3 4 5; do $(GO) run ./cmd/workload-stats -fig $$f -n 200 || exit 1; done
	$(GO) run ./cmd/workload-stats -summary -n 200
	$(GO) run ./cmd/workload-stats -spec examples/hybridworkloads/twoclient.json -n 200
	$(GO) run ./cmd/pfrl-train -alg fedprox -tasks 20 -episodes 6 -comm 2
	$(GO) run ./cmd/pfrl-train -alg secure-fedavg -hybrid -tasks 20 -episodes 6 -comm 2

# The official-size counterpart of figs-smoke: the full suite at the
# EXPERIMENTS.md harness scale plus the headline Figure 15 run on three
# seeds, under one header naming the tree, toolchain and machine (same seed
# gives the same bits per CPU class only, so the record says where it was
# made instead of being diffed in ci).
results:
	@tmp="$$(mktemp)" && { \
		run() { echo "## pfrl-bench $$*" && $(GO) run ./cmd/pfrl-bench "$$@"; } && \
		echo "# commit $$(git rev-parse --short HEAD)$$(git diff --quiet HEAD -- . ':!results_all.txt' || echo +dirty)  $$($(GO) version)  cpu \"$$(sed -n 's/^model name[^:]*: //p' /proc/cpuinfo | head -n 1)\"  GOMAXPROCS $${GOMAXPROCS:-$$(nproc)}" && \
		run -exp all -tasks 80 -episodes 30 -comm 5 -seed 1 && \
		for seed in 1 2 3; do \
			run -exp fig15 -tasks 100 -episodes 40 -seed $$seed || exit 1; \
		done; \
	} > "$$tmp" && mv "$$tmp" results_all.txt

# Workload-spec engine smoke for ci: a two-client demo federation draws its
# tasks from a two-tenant spec on the ranked top-k layout with the aggregate
# block on (the one ci step that trains on that layout), and a tiny
# spec-driven episode runs end to end with the per-SLO-class breakdown. The
# presets are the builtin datasets now, pinned by digest in
# internal/workload's tests rather than compared here.
spec-smoke:
	$(GO) run ./cmd/pfrl-node -mode demo -clients 2 -rounds 1 -comm 1 -tasks 20 -seed 42 \
		-topk 4 -util-buckets 4 -workload-spec examples/hybridworkloads/twoclient.json
	$(GO) run ./cmd/pfrl-bench -exp spec -workload-spec examples/hybridworkloads/twoclient.json -tasks 40
