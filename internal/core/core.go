// Package core orchestrates the PFRL-DM system end to end: it wires the
// cloud-scheduling environments (internal/cloudsim), the workload models
// (internal/workload), the PPO agent, plain or dual-critic (internal/rl), and the
// federated layer (internal/fed) into the experiments reported in the
// paper. Every figure and table in the evaluation has a runner here; the
// CLI tools are thin wrappers around this package.
package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"

	"repro/internal/cloudsim"
	"repro/internal/fed"
	"repro/internal/fedcore"
	"repro/internal/rl"
	"repro/internal/workload"
)

// Algorithm selects one of the compared training schemes (§5.1).
type Algorithm int

const (
	// AlgPPO trains each client independently (the non-federated baseline).
	AlgPPO Algorithm = iota
	// AlgFedAvg federates full actor+critic models with plain averaging.
	AlgFedAvg
	// AlgMFPO federates full models through the server-momentum aggregator
	// standing in for MFPO.
	AlgMFPO
	// AlgPFRLDM is the paper's method: dual-critic clients, public-critic
	// transport, multi-head-attention personalization.
	AlgPFRLDM
	// AlgFedProx is an extension baseline: FedAvg plus client-side proximal
	// regularization (Li et al., MLSys 2020).
	AlgFedProx
	// AlgSecureFedAvg is an extension baseline: FedAvg computed under
	// simulated pairwise-masked secure aggregation (§3.4 threat model).
	AlgSecureFedAvg
)

// algorithmRow is what an Algorithm is.
type algorithmRow struct {
	name string
	// spellings are the -alg names, lower case, the documented one first;
	// the lower-cased display name is always one of them.
	spellings []string
	// dual gives the clients a public critic ψ beside their own.
	dual bool
	// transport is what travels; nil means nothing does (no federation).
	transport fed.Transport
	agg       func(cfg ExperimentConfig) fed.Aggregator
	// defaultK is the number of the n clients aggregated per round when
	// ExperimentConfig.K leaves it open.
	defaultK func(n int) int
}

// algorithms is the one statement of what each Algorithm is; String,
// ParseAlgorithm, newClient and federate read it, and README's algorithm
// table is a rendering of it (TestAlgorithmTable).
var algorithms = [...]algorithmRow{
	AlgPPO:    {name: "PPO", spellings: []string{"ppo"}},
	AlgFedAvg: {name: "FedAvg", spellings: []string{"fedavg"}, transport: fed.ActorCriticTransport{}, agg: plainMean, defaultK: everyone},
	AlgMFPO: {name: "MFPO", spellings: []string{"mfpo"}, transport: fed.ActorCriticTransport{}, defaultK: everyone,
		agg: func(cfg ExperimentConfig) fed.Aggregator {
			beta := cfg.MFPOBeta
			if beta == 0 {
				beta = 0.5
			}
			return fed.NewMomentum(beta)
		}},
	// The paper's setting: only ψ travels, K = N/2.
	AlgPFRLDM: {name: "PFRL-DM", spellings: []string{"pfrl-dm", "pfrldm"}, dual: true, transport: fed.PublicCriticTransport{}, defaultK: fedcore.DefaultK,
		agg: func(cfg ExperimentConfig) fed.Aggregator { return fed.NewAttention(cfg.Seed) }},
	AlgFedProx: {name: "FedProx", spellings: []string{"fedprox"}, transport: fed.FedProxTransport{Mu: 0.01}, agg: plainMean, defaultK: everyone},
	AlgSecureFedAvg: {name: "SecureFedAvg", spellings: []string{"secure-fedavg", "securefedavg"}, transport: fed.ActorCriticTransport{}, defaultK: everyone,
		agg: func(cfg ExperimentConfig) fed.Aggregator { return fed.NewSecureFedAvg(cfg.Seed) }},
}

func plainMean(ExperimentConfig) fed.Aggregator { return fed.FedAvg{} }

func everyone(n int) int { return n }

// row is a's row of the table; the zero row — no name, nothing travels — for
// a value that is none of the constants.
func (a Algorithm) row() algorithmRow {
	if a < 0 || int(a) >= len(algorithms) {
		return algorithmRow{}
	}
	return algorithms[a]
}

// String returns the algorithm's display name.
func (a Algorithm) String() string {
	if name := a.row().name; name != "" {
		return name
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Spellings returns a's -alg names, the documented one first; none for a
// value that is not an algorithm.
func (a Algorithm) Spellings() []string { return a.row().spellings }

// ParseAlgorithm resolves an -alg spelling, in any case, to its Algorithm.
// The error for an unknown name lists every algorithm's documented spelling.
func ParseAlgorithm(s string) (Algorithm, error) {
	var documented []string
	for a, row := range algorithms {
		for _, sp := range row.spellings {
			if strings.EqualFold(s, sp) {
				return Algorithm(a), nil
			}
		}
		documented = append(documented, row.spellings[0])
	}
	return 0, fmt.Errorf("unknown algorithm %q (want %s)", s, strings.Join(documented, "|"))
}

// AllAlgorithms lists the paper's four compared schemes in presentation
// order.
func AllAlgorithms() []Algorithm {
	return []Algorithm{AlgPFRLDM, AlgMFPO, AlgFedAvg, AlgPPO}
}

// ClientSpec is one client's environment definition: its cluster and the
// workload dataset it draws tasks from (Tables 2 and 3).
type ClientSpec struct {
	Name    string
	VMs     []cloudsim.VMSpec
	Dataset workload.DatasetID
	// Workload, when non-nil, overrides Dataset: the client draws its tasks
	// from the declarative spec (workload.ParseSpec / workload.PresetSpec)
	// instead of a builtin model, enabling multi-tenant mixes and SLO-tagged
	// traffic per client.
	Workload *workload.Spec
}

// Table2Specs returns the 4-client exploratory setup of Table 2.
func Table2Specs() []ClientSpec {
	return []ClientSpec{
		{Name: "Client1", VMs: vms(16, 128, 4, 32, 256, 1), Dataset: workload.Google},
		{Name: "Client2", VMs: vms(32, 256, 3), Dataset: workload.Alibaba2017},
		{Name: "Client3", VMs: vms(16, 128, 2, 32, 256, 2), Dataset: workload.HPCHF},
		{Name: "Client4", VMs: vms(16, 128, 3, 32, 256, 2), Dataset: workload.KVM2019},
	}
}

// Table3Specs returns the 10-client main evaluation setup of Table 3.
func Table3Specs() []ClientSpec {
	return []ClientSpec{
		{Name: "Client1", VMs: vms(8, 64, 1, 16, 128, 4, 64, 512, 2), Dataset: workload.Google},
		{Name: "Client2", VMs: vms(8, 64, 3, 32, 128, 3, 64, 512, 1), Dataset: workload.Alibaba2017},
		{Name: "Client3", VMs: vms(8, 64, 3, 32, 256, 2, 64, 512, 2), Dataset: workload.Alibaba2018},
		{Name: "Client4", VMs: vms(8, 64, 2, 32, 256, 3, 40, 256, 2), Dataset: workload.HPCKS},
		{Name: "Client5", VMs: vms(8, 64, 1, 48, 256, 2, 64, 512, 3), Dataset: workload.HPCHF},
		{Name: "Client6", VMs: vms(16, 128, 1, 32, 256, 3, 40, 256, 3), Dataset: workload.HPCWZ},
		{Name: "Client7", VMs: vms(16, 128, 1, 40, 256, 3, 32, 200, 3), Dataset: workload.KVM2019},
		{Name: "Client8", VMs: vms(16, 128, 4, 64, 512, 1), Dataset: workload.KVM2020},
		{Name: "Client9", VMs: vms(8, 64, 2, 16, 128, 2, 64, 512, 1), Dataset: workload.CERITSC},
		{Name: "Client10", VMs: vms(8, 128, 2, 16, 128, 4), Dataset: workload.K8S},
	}
}

// vms expands (cpu, mem, count) triples into a VM list.
func vms(triples ...int) []cloudsim.VMSpec {
	if len(triples)%3 != 0 {
		panic("core: vms wants (cpu, mem, count) triples")
	}
	var out []cloudsim.VMSpec
	for i := 0; i < len(triples); i += 3 {
		for c := 0; c < triples[i+2]; c++ {
			out = append(out, cloudsim.VMSpec{CPU: triples[i], Mem: float64(triples[i+1])})
		}
	}
	return out
}

// ScaleSpecs divides every VM's capacity by scale (keeping at least 1 vCPU
// and 0.5 GiB), shrinking the observation space so scaled-down experiment
// suites run quickly while preserving the relative heterogeneity between
// clients. scale <= 1 returns a deep copy.
func ScaleSpecs(specs []ClientSpec, scale int) []ClientSpec {
	out := make([]ClientSpec, len(specs))
	for i, s := range specs {
		ns := s
		ns.VMs = make([]cloudsim.VMSpec, len(s.VMs))
		for j, v := range s.VMs {
			if scale > 1 {
				v.CPU = max(1, v.CPU/scale)
				v.Mem = max(0.5, v.Mem/float64(scale))
			}
			ns.VMs[j] = v
		}
		out[i] = ns
	}
	return out
}

// FederationCaps computes the federation-wide observation constants shared
// by every client (§4.1: all agents must have identical network shapes, so
// smaller clusters are padded with voids).
type FederationCaps struct {
	PadVMs   int
	PadVCPUs int
	MaxCPU   int
	MaxMem   float64
}

// CapsFor derives the caps from a set of client specs.
func CapsFor(specs []ClientSpec) FederationCaps {
	caps := FederationCaps{PadVMs: 1, PadVCPUs: 1, MaxCPU: 1, MaxMem: 1}
	for _, s := range specs {
		if len(s.VMs) > caps.PadVMs {
			caps.PadVMs = len(s.VMs)
		}
		for _, v := range s.VMs {
			if v.CPU > caps.PadVCPUs {
				caps.PadVCPUs = v.CPU
				caps.MaxCPU = v.CPU
			}
			if v.Mem > caps.MaxMem {
				caps.MaxMem = v.Mem
			}
		}
	}
	return caps
}

// EnvConfig builds one client's cloudsim configuration under the
// federation caps.
func (caps FederationCaps) EnvConfig(spec ClientSpec) cloudsim.Config {
	cfg := cloudsim.DefaultConfig(spec.VMs)
	cfg.PadVMs = caps.PadVMs
	cfg.PadVCPUs = caps.PadVCPUs
	cfg.MaxCPU = caps.MaxCPU
	cfg.MaxMem = caps.MaxMem
	return cfg
}

// ExperimentConfig parameterizes a training run. The zero value is not
// usable; start from DefaultExperiment.
type ExperimentConfig struct {
	Specs          []ClientSpec
	TasksPerClient int
	TrainFrac      float64
	Episodes       int
	CommEvery      int
	// K is the number of clients aggregated per round (0 means N/2,
	// the paper's setting for PFRL-DM; FedAvg/MFPO always use all N).
	K    int
	Seed int64
	// Parallel builds the clients on GOMAXPROCS goroutines and trains
	// them in one goroutine each (fed.Fan); the results are the serial
	// run's, bit for bit.
	Parallel bool
	// ActorLR / CriticLR override the paper defaults when non-zero (the
	// scaled-down suites use slightly larger rates to converge in fewer
	// episodes).
	ActorLR  float64
	CriticLR float64
	// EpisodeStepCap bounds decision steps per episode (0 = cloudsim
	// default).
	EpisodeStepCap int
	// MFPOBeta is the server-momentum coefficient for AlgMFPO
	// (0 means the default, 0.5).
	MFPOBeta float64
	// SLOWaitCost / SLOWaitTarget are forwarded into every client's
	// cloudsim.Config.Objectives, enabling per-service-class reward shaping
	// and violation accounting. All-zero (the default) reproduces the
	// unshaped paper reward exactly.
	SLOWaitCost   [workload.NumSLOClasses]float64
	SLOWaitTarget [workload.NumSLOClasses]int
	// Codec configures the federation's payload wire codec: quantization
	// tier and delta encoding (§ communication cost). The zero value is the
	// lossless identity tier, which reproduces uncompressed runs bit-exactly.
	// Ignored by AlgPPO (no federation).
	Codec fedcore.CodecConfig
}

// DefaultExperiment returns the scaled-down counterpart of the paper's main
// setup: Table 3 clients at 1/4 capacity, 120 tasks per client, 40
// episodes with communication every 5 — small enough for a laptop, large
// enough to show every qualitative result. Paper scale is recovered with
// Specs: Table3Specs(), TasksPerClient: 3500, Episodes: 500, CommEvery: 25.
func DefaultExperiment(seed int64) ExperimentConfig {
	return ExperimentConfig{
		Specs:          ScaleSpecs(Table3Specs(), 4),
		TasksPerClient: 120,
		TrainFrac:      0.6,
		Episodes:       40,
		CommEvery:      5,
		Seed:           seed,
		Parallel:       true,
		ActorLR:        1e-3,
		CriticLR:       1e-3,
		// Bound episodes: an untrained policy would otherwise burn tens of
		// thousands of wait steps before the last task completes.
		EpisodeStepCap: 5 * 120,
	}
}

// envConfig is the one client-environment recipe: spec's cluster under the
// federation caps, the training step cap, and the SLO reward shaping.
func (c ExperimentConfig) envConfig(caps FederationCaps, spec ClientSpec) cloudsim.Config {
	envCfg := caps.EnvConfig(spec)
	if c.EpisodeStepCap > 0 {
		envCfg.MaxSteps = c.EpisodeStepCap
	}
	envCfg.Objectives.SLOWaitCost = c.SLOWaitCost
	envCfg.Objectives.SLOWaitTarget = c.SLOWaitTarget
	return envCfg
}

// newClient is the one client recipe: an agent of alg's kind (with or
// without a public critic, per the table) with cfg's learning rates,
// initialized from seed, in an environment over tasks.
func (c ExperimentConfig) newClient(alg Algorithm, id int, name string, envCfg cloudsim.Config, tasks []workload.Task, seed int64) (*fed.Client, error) {
	rlCfg := rl.DefaultConfig(cloudsim.StateDim(envCfg), cloudsim.NumActions(envCfg))
	if c.ActorLR > 0 {
		rlCfg.ActorLR = c.ActorLR
	}
	if c.CriticLR > 0 {
		rlCfg.CriticLR = c.CriticLR
	}
	newAgent := rl.NewPPO
	if alg.row().dual {
		newAgent = rl.NewDualCriticPPO
	}
	return fed.NewClient(id, name, envCfg, tasks, newAgent(rlCfg, rand.New(rand.NewSource(seed))))
}

// SampleTasks is the one task-sample recipe: n tasks from spec's dataset
// model (3500 per client at paper scale, §5.1) or, when spec.Workload is
// set, from its compiled declarative spec, clamped to spec's cluster. It
// fails only when the workload spec does not compile.
func SampleTasks(spec ClientSpec, rng *rand.Rand, n int) ([]workload.Task, error) {
	var tasks []workload.Task
	if spec.Workload != nil {
		comp, err := spec.Workload.Compile()
		if err != nil {
			return nil, err
		}
		tasks = comp.Sample(rng, n)
	} else {
		tasks = workload.SampleDataset(spec.Dataset, rng, n)
	}
	return cloudsim.ClampTasks(tasks, spec.VMs), nil
}

// ClientData bundles one client's sampled train/test splits.
type ClientData struct {
	Spec  ClientSpec
	Train []workload.Task
	Test  []workload.Task
}

// SampleClientData draws each client's tasks (SampleTasks, seeded per
// client) and splits them train/test.
func SampleClientData(cfg ExperimentConfig) ([]ClientData, error) {
	out := make([]ClientData, len(cfg.Specs))
	for i, spec := range cfg.Specs {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(i)*7919))
		tasks, err := SampleTasks(spec, rng, cfg.TasksPerClient)
		if err != nil {
			return nil, fmt.Errorf("core: client %d (%s): %w", i, spec.Name, err)
		}
		train, test := workload.Split(tasks, cfg.TrainFrac)
		out[i] = ClientData{Spec: spec, Train: train, Test: test}
	}
	return out, nil
}

// TrainResult is the outcome of one training run.
type TrainResult struct {
	Algorithm Algorithm
	Clients   []*fed.Client
	// Federation is nil for AlgPPO (independent training).
	Federation *fed.Federation
	// MeanCurve is the across-client mean of per-episode total rewards
	// (the paper's Figure 8/15 convergence series).
	MeanCurve []float64
	Data      []ClientData
	// Participation is the number of uploads aggregated in each round
	// (equals K every round unless faults dropped clients out).
	Participation []int
	// Comm is the federation's communication ledger: scalar counts plus
	// measured wire bytes of every codec frame (zero for AlgPPO).
	Comm fed.CommStats
}

// BuildClients constructs the federated clients (environments + agents)
// for an algorithm: on GOMAXPROCS goroutines when cfg.Parallel, in order
// otherwise, with the same clients either way — each is seeded by its index
// alone — and, when some fail, the error of the lowest index.
func BuildClients(alg Algorithm, cfg ExperimentConfig, data []ClientData) ([]*fed.Client, error) {
	caps := CapsFor(cfg.Specs)
	clients := make([]*fed.Client, len(data))
	workers := 1
	if cfg.Parallel {
		workers = runtime.GOMAXPROCS(0)
	}
	err := fed.Fan(len(data), workers, func(i int) error {
		d := data[i]
		c, err := cfg.newClient(alg, i, d.Spec.Name, cfg.envConfig(caps, d.Spec), d.Train, cfg.Seed+104729*int64(i+1))
		clients[i] = c
		return err
	})
	if err != nil {
		return nil, err
	}
	return clients, nil
}

// Train runs one full training under the given algorithm.
func Train(alg Algorithm, cfg ExperimentConfig) (*TrainResult, error) {
	r, err := setup(alg, cfg)
	if err != nil {
		return nil, err
	}
	if err := r.train(cfg, nil); err != nil {
		return nil, err
	}
	return r, nil
}

// setup is Train up to the first episode: the sampled data and the clients
// built over it.
func setup(alg Algorithm, cfg ExperimentConfig) (*TrainResult, error) {
	data, err := SampleClientData(cfg)
	if err != nil {
		return nil, err
	}
	clients, err := BuildClients(alg, cfg, data)
	if err != nil {
		return nil, err
	}
	return &TrainResult{Algorithm: alg, Clients: clients, Data: data}, nil
}

// federate is the one federation assembly: r's row of the algorithm table
// gives the transport, the aggregator (agg, when non-nil, replaces it — the
// ablation and Figure 10 runners' only lever) and the default K, and every
// federation option of cfg is carried over. The federation is the barrier
// regime over a clean transport; the fault injector is fed.FaultyTransport,
// set by whoever calls fed.New.
func (r *TrainResult) federate(cfg ExperimentConfig, agg fed.Aggregator) (*fed.Federation, error) {
	row := r.Algorithm.row()
	transport := row.transport
	if transport == nil {
		return nil, fmt.Errorf("core: %v does not federate", r.Algorithm)
	}
	if agg == nil {
		agg = row.agg(cfg)
	}
	// cfg.K wins when set. The engine clamps to [1, N].
	k := cfg.K
	if k <= 0 {
		k = row.defaultK(len(r.Clients))
	}
	return fed.New(r.Clients, transport, agg, fed.Options{
		K: k, CommEvery: cfg.CommEvery, Seed: cfg.Seed, Parallel: cfg.Parallel,
		Codec: cfg.Codec,
	})
}

// train runs cfg.Episodes on r's clients — independently for AlgPPO, through
// the federate assembly otherwise — and fills in the run's outcome.
func (r *TrainResult) train(cfg ExperimentConfig, agg fed.Aggregator) error {
	if r.Algorithm == AlgPPO {
		fed.TrainClients(r.Clients, cfg.Episodes, cfg.Parallel)
		r.MeanCurve = fed.MeanRewardCurve(r.Clients)
		return nil
	}
	f, err := r.federate(cfg, agg)
	if err != nil {
		return err
	}
	if err := f.RunEpisodes(cfg.Episodes); err != nil {
		return err
	}
	r.Federation = f
	r.Participation = make([]int, len(f.Reports))
	for i, rep := range f.Reports {
		r.Participation[i] = rep.Participants
	}
	r.MeanCurve = fed.MeanRewardCurve(r.Clients)
	r.Comm = f.Comm()
	return nil
}
