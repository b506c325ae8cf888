package repro

import (
	"math/rand"

	"repro/internal/cloudsim"
	"repro/internal/core"
	"repro/internal/rl"
	"repro/internal/workload"
)

// The facade re-exports the high-level API so downstream users interact
// with one package. Type aliases keep the internal packages as the single
// source of truth.

// Algorithm selects a training scheme.
type Algorithm = core.Algorithm

// The four compared algorithms.
const (
	PPO    = core.AlgPPO
	FedAvg = core.AlgFedAvg
	MFPO   = core.AlgMFPO
	PFRLDM = core.AlgPFRLDM
)

// ExperimentConfig parameterizes a training run.
type ExperimentConfig = core.ExperimentConfig

// ClientSpec defines one client's cluster and workload dataset.
type ClientSpec = core.ClientSpec

// TrainResult is the outcome of TrainFederation.
type TrainResult = core.TrainResult

// Task is one schedulable unit of work.
type Task = workload.Task

// VMSpec describes a virtual machine's capacity.
type VMSpec = cloudsim.VMSpec

// Metrics are the scheduling quality measures of §5.1.
type Metrics = cloudsim.Metrics

// DefaultExperiment returns the scaled-down Table-3 configuration
// (see core.DefaultExperiment for the paper-scale knobs).
func DefaultExperiment(seed int64) ExperimentConfig { return core.DefaultExperiment(seed) }

// Table2Specs returns the paper's 4-client exploratory setup.
func Table2Specs() []ClientSpec { return core.Table2Specs() }

// Table3Specs returns the paper's 10-client main setup.
func Table3Specs() []ClientSpec { return core.Table3Specs() }

// ScaleSpecs divides VM capacities by scale, preserving heterogeneity.
func ScaleSpecs(specs []ClientSpec, scale int) []ClientSpec { return core.ScaleSpecs(specs, scale) }

// TrainFederation trains the given algorithm over the configured clients
// and returns the result (convergence curves, trained clients, federation).
func TrainFederation(alg Algorithm, cfg ExperimentConfig) (*TrainResult, error) {
	return core.Train(alg, cfg)
}

// NewEnvironment builds a standalone scheduling environment for the given
// cluster and task set, using the environment defaults of §4.2.
func NewEnvironment(vms []VMSpec, tasks []Task) (*cloudsim.Env, error) {
	return cloudsim.NewEnv(cloudsim.DefaultConfig(vms), cloudsim.ClampTasks(tasks, vms))
}

// SampleWorkload draws n tasks from one of the ten modelled datasets.
func SampleWorkload(dataset workload.DatasetID, seed int64, n int) []Task {
	return workload.SampleDataset(dataset, rand.New(rand.NewSource(seed)), n)
}

// NewPPOAgent builds a plain (single-critic) PPO agent for an environment.
func NewPPOAgent(env *cloudsim.Env, seed int64) *rl.PPO {
	return rl.NewPPO(rl.DefaultConfig(env.StateDim(), env.NumActions()), rand.New(rand.NewSource(seed)))
}

// NewDualCriticAgent builds a PFRL-DM client agent for an environment.
func NewDualCriticAgent(env *cloudsim.Env, seed int64) *rl.PPO {
	return rl.NewDualCriticPPO(rl.DefaultConfig(env.StateDim(), env.NumActions()), rand.New(rand.NewSource(seed)))
}
