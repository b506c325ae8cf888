// Package repro is a from-scratch Go reproduction of "Heterogeneity-aware
// Task Scheduling based on Personalized Federated Reinforcement Learning"
// (PFRL-DM, ICPP 2025).
//
// The root package is a thin facade over the internal packages; it exposes
// the high-level entry points a downstream user needs:
//
//   - Train a scheduler federation with any of the compared algorithms
//     (PFRL-DM, MFPO, FedAvg, independent PPO) via TrainFederation.
//   - Build standalone scheduling environments and agents for custom
//     experiments via NewEnvironment, NewPPOAgent and NewDualCriticAgent.
//   - Regenerate every figure and table of the paper via the runners in
//     internal/core, driven by cmd/pfrl-bench -exp <id> (the one harness;
//     performance is measured by go run ./benchmark).
//
// Architecture (bottom-up):
//
//	internal/tensor    dense float64 matrices, bit-exact SIMD kernels, buffer pool
//	internal/autograd  tape-based reverse-mode autodiff
//	internal/nn        tanh MLPs, Adam, categorical policies, flat params
//	internal/attn      multi-head attention / KL / cosine weight generators
//	internal/workload  the ten modelled cluster trace distributions
//	internal/cloudsim  the discrete-time cloud scheduling MDP (§4.1-4.2)
//	internal/rl        the one PPO learner, plain or dual-critic (§4.3)
//	internal/fedcore   transport-agnostic federated round engine
//	internal/fed       clients, in-process rounds, aggregators (§4.4-4.5)
//	internal/fednet    the same rounds over TCP (binary RPC), swarm chaos harness
//	internal/obs       JSONL events, Prometheus registry, phase timers
//	internal/core      the algorithm table, experiment orchestration, one runner per figure
//	internal/stats     Wilcoxon signed-rank test and descriptive stats
//	internal/trace     result tables and CSV series
//
// See README.md for a quickstart and DESIGN.md for the full system
// inventory and per-experiment index.
package repro
