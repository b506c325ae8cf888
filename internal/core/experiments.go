package core

import (
	"fmt"
	"math/rand"

	"repro/internal/attn"
	"repro/internal/cloudsim"
	"repro/internal/fed"
	"repro/internal/nn"
	"repro/internal/stats"
	"repro/internal/workload"
)

// ---------------------------------------------------------------------------
// Figure 7 — iso-train vs heter-train response times (§3.1)
// ---------------------------------------------------------------------------

// IsoHeterResult holds, per client, the average response time of the four
// train/test combinations of §3.1.
type IsoHeterResult struct {
	Clients []string
	// Indexed [client]: response time of the model trained on the named
	// set, tested on the named set.
	IsoTrainIsoTest     []float64
	IsoTrainHeterTest   []float64
	HeterTrainIsoTest   []float64
	HeterTrainHeterTest []float64
}

// RunIsoHeter reproduces the §3.1 exploratory experiment: for each client
// environment, a PPO scheduler is trained once on the client's own task
// distribution (iso-train) and once on the combined heterogeneous
// distribution (heter-train), then evaluated on both iso-test and
// heter-test. The paper's observation is that heter-trained models achieve
// lower response times across test sets.
func RunIsoHeter(cfg ExperimentConfig) (*IsoHeterResult, error) {
	data, err := SampleClientData(cfg)
	if err != nil {
		return nil, err
	}
	caps := CapsFor(cfg.Specs)

	// Build the combined heterogeneous train/test pools (§3.1).
	var allTrain, allTest [][]workload.Task
	for _, d := range data {
		allTrain = append(allTrain, d.Train)
		allTest = append(allTest, d.Test)
	}
	heterTrainPool := workload.Combine(allTrain...)
	heterTestPool := workload.Combine(allTest...)

	res := &IsoHeterResult{}
	for i, d := range data {
		res.Clients = append(res.Clients, d.Spec.Name)
		envCfg := cfg.envConfig(caps, d.Spec)
		mixRng := rand.New(rand.NewSource(cfg.Seed + int64(i)*31 + 5))

		// Same-size training budgets for a fair comparison.
		heterTrain := cloudsim.ClampTasks(
			workload.Subsample(mixRng, heterTrainPool, len(d.Train)), d.Spec.VMs)
		heterTest := cloudsim.ClampTasks(
			workload.Subsample(mixRng, heterTestPool, len(d.Test)), d.Spec.VMs)

		// One PPO scheduler per training set, each scored on both test sets.
		var resp [2][2]float64 // [iso-, heter-trained][iso-, heter-test]
		for k, train := range [2][]workload.Task{d.Train, heterTrain} {
			c, err := cfg.newClient(AlgPPO, i, d.Spec.Name, envCfg, train, cfg.Seed+int64(i)*1009+int64(k+1))
			if err != nil {
				return nil, err
			}
			c.TrainEpisodes(cfg.Episodes)
			for j, test := range [2][]workload.Task{d.Test, heterTest} {
				resp[k][j] = c.Evaluate(test, nil).AvgResponse
			}
		}
		res.IsoTrainIsoTest = append(res.IsoTrainIsoTest, resp[0][0])
		res.IsoTrainHeterTest = append(res.IsoTrainHeterTest, resp[0][1])
		res.HeterTrainIsoTest = append(res.HeterTrainIsoTest, resp[1][0])
		res.HeterTrainHeterTest = append(res.HeterTrainHeterTest, resp[1][1])
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// Figures 8, 15 — convergence comparisons
// ---------------------------------------------------------------------------

// RunConvergence trains the given algorithms on one shared configuration
// and returns the mean reward curve per algorithm, keyed by name.
func RunConvergence(cfg ExperimentConfig, algs []Algorithm) (map[string][]float64, map[Algorithm]*TrainResult, error) {
	curves := make(map[string][]float64, len(algs))
	results := make(map[Algorithm]*TrainResult, len(algs))
	for _, alg := range algs {
		r, err := Train(alg, cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("core: %v: %w", alg, err)
		}
		curves[alg.String()] = r.MeanCurve
		results[alg] = r
	}
	return curves, results, nil
}

// ---------------------------------------------------------------------------
// Figure 9 — critic loss before/after aggregation
// ---------------------------------------------------------------------------

// CriticLossSeries averages the per-round critic-loss probes across a
// run's clients: the critic MSE immediately before the aggregated model is
// installed and immediately after. FedAvg shows post > pre (aggregation
// hurts local evaluation), the paper's Figure 9.
func CriticLossSeries(r *TrainResult) (pre, post []float64) {
	if len(r.Clients) == 0 {
		return nil, nil
	}
	rounds := len(r.Clients[0].CriticLossPre)
	for _, c := range r.Clients[1:] {
		if len(c.CriticLossPre) < rounds {
			rounds = len(c.CriticLossPre)
		}
	}
	pre = make([]float64, rounds)
	post = make([]float64, rounds)
	for _, c := range r.Clients {
		for i := 0; i < rounds; i++ {
			pre[i] += c.CriticLossPre[i]
			post[i] += c.CriticLossPost[i]
		}
	}
	inv := 1.0 / float64(len(r.Clients))
	for i := 0; i < rounds; i++ {
		pre[i] *= inv
		post[i] *= inv
	}
	return pre, post
}

// ---------------------------------------------------------------------------
// Figure 10 — manually weighting similar clients (§3.3)
// ---------------------------------------------------------------------------

// WeightConfigResult maps each §3.3 configuration name to client C1's
// reward curve.
type WeightConfigResult map[string][]float64

// RunWeightConfigs reproduces the four Figure-10 configurations:
// Fed-Diff, Fed-Diff-weight, Fed-Same2 and Fed-Same2-weight. In the
// "-weight" variants client C1 pays extra attention to its designated
// partner (C2, or its twin C1'); in the others plain averaging is used.
func RunWeightConfigs(cfg ExperimentConfig) (WeightConfigResult, error) {
	base := Table2Specs()
	if len(cfg.Specs) >= 4 {
		base = cfg.Specs
	}
	diffSpecs := []ClientSpec{base[0], base[1], base[2], base[3]}
	// Fed-Same2: C1 and a twin C1' (same cluster, same dataset), plus C3, C4.
	twin := base[0]
	twin.Name = base[0].Name + "'"
	sameSpecs := []ClientSpec{base[0], twin, base[2], base[3]}

	// C1 pays 0.4 to itself and its partner, 0.1 to the rest.
	weighted := [][]float64{
		{0.4, 0.4, 0.1, 0.1},
		{0.25, 0.25, 0.25, 0.25},
		{0.25, 0.25, 0.25, 0.25},
		{0.25, 0.25, 0.25, 0.25},
	}
	uniform := [][]float64{
		{0.25, 0.25, 0.25, 0.25},
		{0.25, 0.25, 0.25, 0.25},
		{0.25, 0.25, 0.25, 0.25},
		{0.25, 0.25, 0.25, 0.25},
	}

	configs := []struct {
		name  string
		specs []ClientSpec
		w     [][]float64
	}{
		{"Fed-Diff", diffSpecs, uniform},
		{"Fed-Diff-weight", diffSpecs, weighted},
		{"Fed-Same2", sameSpecs, uniform},
		{"Fed-Same2-weight", sameSpecs, weighted},
	}

	out := WeightConfigResult{}
	for _, conf := range configs {
		runCfg := cfg
		runCfg.Specs = conf.specs
		// A static 4×4 weight matrix needs all four uploads in every round:
		// full participation, the barrier trigger, a clean transport.
		runCfg.K, runCfg.Async, runCfg.Faults = len(conf.specs), false, fed.FaultSpec{}
		// Twin clients must sample independent task sets: SampleClientData
		// already derives per-index seeds, which differ for C1 and C1'.
		r, err := setup(AlgFedAvg, runCfg)
		if err != nil {
			return nil, err
		}
		if err := r.train(runCfg, fed.StaticWeights{W: conf.w}); err != nil {
			return nil, err
		}
		out[conf.name] = r.Clients[0].Rewards
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Figures 11–13 — weight-generation heatmaps (§3.3)
// ---------------------------------------------------------------------------

// HeatmapResult holds the three K×K weight matrices of §3.3 for clients
// (C1, C1', C2, C3), where C1 and C1' share an environment.
type HeatmapResult struct {
	Labels    []string
	Attention [][]float64
	KL        [][]float64
	Cosine    [][]float64
}

// RunWeightHeatmaps trains four dual-critic clients from a shared public
// critic initialization — C1 and C1' in identical environments — and
// compares the weights the three generators produce from the resulting
// critic models (Figures 11, 12, 13).
func RunWeightHeatmaps(cfg ExperimentConfig) (*HeatmapResult, error) {
	base := Table2Specs()
	if len(cfg.Specs) >= 3 {
		base = cfg.Specs
	}
	twin := base[0]
	twin.Name = base[0].Name + "'"
	specs := []ClientSpec{base[0], twin, base[1], base[2]}
	runCfg := cfg
	runCfg.Specs = specs

	r, err := setup(AlgPFRLDM, runCfg)
	if err != nil {
		return nil, err
	}
	// Shared starting point, as in federated training (assembling the
	// federation performs the initial sync); no aggregation rounds — we only
	// watch the local drift.
	if _, err := r.federate(runCfg, nil); err != nil {
		return nil, err
	}
	fed.TrainClients(r.Clients, runCfg.Episodes, runCfg.Parallel)

	uploads := make([][]float64, len(r.Clients))
	labels := make([]string, len(r.Clients))
	for i, c := range r.Clients {
		if uploads[i], err = (fed.PublicCriticTransport{}).Upload(c); err != nil {
			return nil, err
		}
		labels[i] = specs[i].Name
	}
	return &HeatmapResult{
		Labels:    labels,
		Attention: attn.NewAggregator(runCfg.Seed).Weights(uploads),
		KL:        attn.KLWeights(uploads),
		Cosine:    attn.CosineWeights(uploads),
	}, nil
}

// ---------------------------------------------------------------------------
// Figures 16–19 and Table 4 — hybrid-workload generalization (§5.3)
// ---------------------------------------------------------------------------

// HybridEval holds per-client evaluation metrics for one scheduler.
type HybridEval struct {
	Clients     []string
	AvgResponse []float64
	Makespan    []float64
	AvgUtil     []float64
	AvgLoadBal  []float64
	// Completed / Total are each client's scheduling coverage. The four
	// metrics above average over completed tasks only, so they compare
	// schedulers only where Completed == Total.
	Completed []int
	Total     []int
}

// EvalHybrid evaluates a trained run on the §5.3 hybrid test sets: per
// client, 20% of tasks keep the native distribution and 80% are drawn from
// the other clients' datasets; VM specifications stay fixed. A non-nil floor
// is scored in place of each client's agent — a heuristic on the same test
// sets and environments, the floor any learned policy must beat.
func EvalHybrid(r *TrainResult, cfg ExperimentConfig, nativeFrac float64, floor cloudsim.Policy) *HybridEval {
	he := &HybridEval{}
	nTest := int(float64(cfg.TasksPerClient) * (1 - cfg.TrainFrac))
	if nTest < 10 {
		nTest = 10
	}
	for i, c := range r.Clients {
		spec := r.Data[i].Spec
		var others []workload.DatasetID
		for j, d := range r.Data {
			if j != i {
				others = append(others, d.Spec.Dataset)
			}
		}
		// The hybrid set depends only on (seed, client), not the scheduler,
		// so all of them face identical test conditions.
		mixRng := rand.New(rand.NewSource(cfg.Seed + 7907*int64(i+1)))
		mix := cloudsim.ClampTasks(
			workload.HybridMix(mixRng, spec.Dataset, others, nTest, nativeFrac), spec.VMs)
		m := c.Evaluate(mix, floor)
		he.Clients = append(he.Clients, spec.Name)
		he.AvgResponse = append(he.AvgResponse, m.AvgResponse)
		he.Makespan = append(he.Makespan, float64(m.Makespan))
		he.AvgUtil = append(he.AvgUtil, m.AvgUtil)
		he.AvgLoadBal = append(he.AvgLoadBal, m.AvgLoadBal)
		he.Completed = append(he.Completed, m.Completed)
		he.Total = append(he.Total, m.Total)
	}
	return he
}

// WilcoxonTable reproduces Table 4: the pair-wise Wilcoxon signed-rank
// p-values between PFRL-DM and every other algorithm, for each of the four
// metrics, over the per-client results.
type WilcoxonTable struct {
	Metrics    []string
	Algorithms []string
	// P[m][a] is the p-value for metric m against algorithm a.
	P [][]float64
}

// BuildWilcoxonTable computes Table 4 from hybrid evaluations. evals must
// include AlgPFRLDM.
func BuildWilcoxonTable(evals map[Algorithm]*HybridEval) (*WilcoxonTable, error) {
	ref, ok := evals[AlgPFRLDM]
	if !ok {
		return nil, fmt.Errorf("core: Wilcoxon table needs a PFRL-DM evaluation")
	}
	metricOf := func(e *HybridEval) [][]float64 {
		return [][]float64{e.AvgResponse, e.Makespan, e.AvgUtil, e.AvgLoadBal}
	}
	tbl := &WilcoxonTable{
		Metrics: []string{"Average response", "Average makespan", "Average resource utilization", "Average load balancing"},
	}
	refM := metricOf(ref)
	for _, alg := range []Algorithm{AlgFedAvg, AlgMFPO, AlgPPO} {
		e, ok := evals[alg]
		if !ok {
			continue
		}
		tbl.Algorithms = append(tbl.Algorithms, alg.String())
		other := metricOf(e)
		for mi := range tbl.Metrics {
			if len(tbl.P) <= mi {
				tbl.P = append(tbl.P, nil)
			}
			res, err := stats.Wilcoxon(refM[mi], other[mi])
			p := 1.0
			if err == nil {
				p = res.P
			}
			tbl.P[mi] = append(tbl.P[mi], p)
		}
	}
	return tbl, nil
}

// ---------------------------------------------------------------------------
// Figure 20 — a new agent joins the federation (§5.3)
// ---------------------------------------------------------------------------

// NewAgentResult compares a client joining an established PFRL-DM
// federation against a fresh independent PPO in the same environment.
type NewAgentResult struct {
	// Joined is the reward curve of the agent initialized from the server
	// model; Fresh is the from-scratch PPO curve.
	Joined []float64
	Fresh  []float64
}

// RunNewAgent trains a PFRL-DM federation for warmupEpisodes, then adds a
// new client whose environment clones client 1's, initializing it from the
// server's global critic (both its public and local critics, the joining
// bootstrap), and trains for joinEpisodes more. A fresh PPO baseline trains
// in an identical environment for the same number of episodes. Note: since
// PFRL-DM never transmits actors, the joiner's advantage comes from
// value-function warm-starting rather than an instant policy transfer (see
// EXPERIMENTS.md for how this compares to the paper's Figure 20).
func RunNewAgent(cfg ExperimentConfig, warmupEpisodes, joinEpisodes int) (*NewAgentResult, error) {
	warmCfg := cfg
	warmCfg.Episodes = warmupEpisodes
	r, err := Train(AlgPFRLDM, warmCfg)
	if err != nil {
		return nil, err
	}
	f := r.Federation

	// Clone client 1's environment definition with fresh task samples.
	spec := cfg.Specs[0]
	spec.Name += "-new"
	tasks, err := SampleTasks(spec, rand.New(rand.NewSource(cfg.Seed+424243)), cfg.TasksPerClient)
	if err != nil {
		return nil, fmt.Errorf("core: joiner (%s): %w", spec.Name, err)
	}
	train, _ := workload.Split(tasks, cfg.TrainFrac)
	envCfg := cfg.envConfig(CapsFor(cfg.Specs), spec)

	jc, err := cfg.newClient(AlgPFRLDM, len(f.Clients), spec.Name, envCfg, train, cfg.Seed+515151)
	if err != nil {
		return nil, err
	}
	if err := f.AddClient(jc); err != nil {
		return nil, err
	}
	// Joining bootstrap: the server model also seeds the local critic so the
	// newcomer starts with a trained value function.
	if err := nn.CopyParams(jc.Agent.Critic, jc.Agent.PublicCritic); err != nil {
		return nil, err
	}
	if err := f.RunEpisodes(joinEpisodes); err != nil {
		return nil, err
	}

	fc, err := cfg.newClient(AlgPPO, 999, spec.Name+"-fresh", envCfg, train, cfg.Seed+616161)
	if err != nil {
		return nil, err
	}
	fc.TrainEpisodes(joinEpisodes)

	return &NewAgentResult{Joined: jc.Rewards, Fresh: fc.Rewards}, nil
}

// ---------------------------------------------------------------------------
// Figure 21 — communication frequency sweep
// ---------------------------------------------------------------------------

// RunCommFrequency trains PFRL-DM at several communication frequencies and
// returns the mean reward curve per frequency.
func RunCommFrequency(cfg ExperimentConfig, freqs []int) (map[int][]float64, error) {
	out := make(map[int][]float64, len(freqs))
	for _, fr := range freqs {
		c := cfg
		c.CommEvery = fr
		r, err := Train(AlgPFRLDM, c)
		if err != nil {
			return nil, err
		}
		out[fr] = r.MeanCurve
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Ablations (design choices called out in DESIGN.md)
// ---------------------------------------------------------------------------

// AblationVariant names one ablation configuration.
type AblationVariant string

// The supported ablation variants.
const (
	// AblationFull is PFRL-DM as published.
	AblationFull AblationVariant = "pfrl-dm"
	// AblationNoDualCritic pins α to 0: clients rely purely on the shared
	// public critic (no local critic influence).
	AblationNoDualCritic AblationVariant = "no-dual-critic"
	// AblationNoAttention replaces the attention aggregator with plain
	// FedAvg over public critics (dual critic retained).
	AblationNoAttention AblationVariant = "no-attention"
	// AblationFixedAlpha pins α to 0.5 instead of the adaptive Eq. (15).
	AblationFixedAlpha AblationVariant = "fixed-alpha"
)

// RunAblation trains one PFRL-DM variant and returns its mean reward curve:
// Train(AlgPFRLDM) with a pinned α per agent and/or another aggregator
// (attentionHeads > 0 overrides the attention aggregator's head count).
func RunAblation(cfg ExperimentConfig, variant AblationVariant, attentionHeads int) ([]float64, error) {
	r, err := setup(AlgPFRLDM, cfg)
	if err != nil {
		return nil, err
	}
	for _, c := range r.Clients {
		switch variant {
		case AblationNoDualCritic:
			c.Agent.FixedAlpha = 0
		case AblationFixedAlpha:
			c.Agent.FixedAlpha = 0.5
		}
	}
	var agg fed.Aggregator // nil keeps PFRL-DM's own attention aggregator
	switch {
	case variant == AblationNoAttention:
		agg = fed.FedAvg{}
	case attentionHeads > 0:
		a := fed.NewAttention(cfg.Seed)
		a.Gen.Heads = attentionHeads
		agg = a
	}
	if err := r.train(cfg, agg); err != nil {
		return nil, err
	}
	return r.MeanCurve, nil
}
