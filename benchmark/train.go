package main

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fed"
	"repro/internal/fedcore"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// trainWorkload is a core.Train workload: fig15_table2 (four algorithms in
// turn, sequential clients) or table3_parallel (PFRL-DM, ten client
// goroutines).
type trainWorkload struct {
	id     string
	algs   []core.Algorithm
	config func(seed int64, sc scale) core.ExperimentConfig
}

// algKey is the metric-name suffix of an algorithm.
func algKey(alg core.Algorithm) string {
	switch alg {
	case core.AlgPPO:
		return "ppo"
	case core.AlgFedAvg:
		return "fedavg"
	case core.AlgMFPO:
		return "mfpo"
	case core.AlgPFRLDM:
		return "pfrldm"
	}
	return alg.String()
}

func fig15Workload() trainWorkload {
	return trainWorkload{
		id:   wFig15,
		algs: []core.Algorithm{core.AlgPPO, core.AlgFedAvg, core.AlgMFPO, core.AlgPFRLDM},
		config: func(seed int64, sc scale) core.ExperimentConfig {
			cfg := core.DefaultExperiment(seed)
			cfg.Specs = core.ScaleSpecs(core.Table2Specs(), 4)[:sc.fig15Clients]
			cfg.TasksPerClient = sc.fig15Tasks
			cfg.Episodes = sc.fig15Episodes
			cfg.CommEvery = sc.commEvery
			cfg.EpisodeStepCap = 5 * sc.fig15Tasks
			cfg.Parallel = false
			return cfg
		},
	}
}

func table3Workload() trainWorkload {
	return trainWorkload{
		id:   wTable3,
		algs: []core.Algorithm{core.AlgPFRLDM},
		config: func(seed int64, sc scale) core.ExperimentConfig {
			cfg := core.DefaultExperiment(seed) // the product default: Table 3 at 1/4 capacity, Parallel
			cfg.Specs = cfg.Specs[:sc.table3Clients]
			cfg.TasksPerClient = sc.table3Tasks
			cfg.Episodes = sc.table3Episodes
			cfg.CommEvery = sc.commEvery
			cfg.EpisodeStepCap = 5 * sc.table3Tasks
			return cfg
		},
	}
}

// setupSamples is how many times a pass repeats the millisecond-scale set-up.
const setupSamples = 7

func (w trainWorkload) name() string     { return w.id }
func (w trainWorkload) serialised() bool { return w.id == wFig15 }

func (w trainWorkload) warm(seed int64) error {
	cfg := w.config(seed, smokeScale)
	for _, alg := range w.algs {
		if _, err := core.Train(alg, cfg); err != nil {
			return err
		}
	}
	return nil
}

// trainLeg is what one algorithm's training produced, from either driver.
type trainLeg struct {
	alg     core.Algorithm
	wall    time.Duration
	curve   []float64
	clients []*fed.Client
	global  fed.Payload // nil for PPO
	reports []fed.RoundReport
	comm    fed.CommStats
}

// product times core.Train for every algorithm of the workload.
func (w trainWorkload) product(seed int64, sc scale) (*unit, error) {
	cfg := w.config(seed, sc)
	u := newUnit()

	// Set-up is what core.Train does before its first episode. Train does it
	// again inside the timed region (it is the product's entry point and has
	// no later one); timing it here, on its own, is what lets work moved into
	// set-up show.
	// It takes milliseconds, so each pass sets up several times and keeps
	// the median.
	setups := make([]float64, setupSamples)
	for i := range setups {
		t0 := time.Now()
		for _, alg := range w.algs {
			data, err := core.SampleClientData(cfg)
			if err != nil {
				return nil, err
			}
			if _, err := core.BuildClients(alg, cfg, data); err != nil {
				return nil, err
			}
		}
		setups[i] = float64(time.Since(t0))
	}
	u.setup = time.Duration(median(setups))

	steps0 := envSteps()
	legs := make([]trainLeg, 0, len(w.algs))
	m := startMeter()
	for _, alg := range w.algs {
		legStart := time.Now()
		res, err := core.Train(alg, cfg)
		if err != nil {
			u.fail(len(cfg.Specs)*cfg.Episodes, "core.Train(%v): %v", alg, err)
			continue
		}
		leg := trainLeg{alg: alg, wall: time.Since(legStart), curve: res.MeanCurve, clients: res.Clients, comm: res.Comm}
		if res.Federation != nil {
			leg.global, leg.reports = res.Federation.Global, res.Federation.Reports
		}
		legs = append(legs, leg)
	}
	u.cost = m.stop()
	u.steps = envSteps() - steps0
	w.finish(u, cfg, legs, nil, 0)
	return u, nil
}

// finish checks the legs, digests them and fills the unit's counts and
// end-to-end values. tr and root are the traced driver's (nil/0 otherwise):
// the final Drain of every client environment is a span there.
func (w trainWorkload) finish(u *unit, cfg core.ExperimentConfig, legs []trainLeg, tr *tracer, root int) {
	d := newDigest()
	var wire int64
	rounds := 0
	for _, leg := range legs {
		u.ops += len(leg.clients) * cfg.Episodes
		if len(leg.curve) != cfg.Episodes {
			u.fail(len(leg.clients)*abs(cfg.Episodes-len(leg.curve)), "%v: curve has %d points, want %d", leg.alg, len(leg.curve), cfg.Episodes)
		}
		for _, c := range leg.clients {
			bad := 0
			for _, r := range c.Rewards {
				if !finite(r) {
					bad++
				}
			}
			u.fail(bad, "%v: client %d has %d non-finite episode rewards", leg.alg, c.ID, bad)
		}
		for _, rep := range leg.reports {
			// The in-process federation pulls from the selected clients
			// only, so every selected client either arrived or was dropped.
			if rep.Participants > rep.Selected || rep.Arrived+rep.UploadDrops != rep.Selected {
				u.fail(1, "%v: round %d report inconsistent: %+v", leg.alg, rep.Round, rep)
			}
		}
		d.floats(leg.curve...)
		d.floats(leg.global...)
		for _, c := range leg.clients {
			t0 := time.Now()
			c.Env.Drain()
			tr.add("cloudsim.drain", root, algTag(algKey(leg.alg)).of(c.ID), t0, time.Now())
			m := c.Env.Metrics()
			d.floats(m.AvgResponse, m.AvgUtil, m.AvgLoadBal, m.EnergyWattSlots, m.Cost)
			d.ints(m.Makespan, m.Completed, m.Total, m.Steps)
		}
		wire += leg.comm.Bytes()
		rounds += len(leg.reports)
		u.vals["leg_s."+algKey(leg.alg)] = seconds(leg.wall)
		if leg.alg == core.AlgPFRLDM {
			u.vals["reward_last5"] = stats.Mean(lastN(leg.curve, 5))
			u.vals["fedcore.compression_ratio"] = leg.comm.CompressionRatio()
		}
	}
	u.digest = d.sum()
	u.counts["env_steps"] = float64(u.steps)
	u.counts["rounds"] = float64(rounds)
	u.counts["wire_bytes"] = float64(wire)
	u.vals["wire_bytes_per_round"] = ratio(float64(wire), float64(rounds))
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func lastN(vs []float64, n int) []float64 {
	if len(vs) > n {
		return vs[len(vs)-n:]
	}
	return vs
}

// traced re-drives the workload the way core.Train and fed.RunEpisodes do,
// with the decorators of instrument.go on every seam.
func (w trainWorkload) traced(seed int64, sc scale, tr *tracer) (*unit, error) {
	cfg := w.config(seed, sc)
	u := newUnit()
	var env envCounters
	gets0, hits0 := tensor.DefaultPool().Stats()
	phase0 := obs.GlobalTimers().Snapshot()
	steps0 := envSteps()

	m := startMeter()
	root := tr.begin("run", 0, noTags)
	legs := make([]trainLeg, 0, len(w.algs))
	for _, alg := range w.algs {
		leg, err := tracedTrain(tr, root, alg, cfg, &env)
		if err != nil {
			u.fail(len(cfg.Specs)*cfg.Episodes, "traced %v: %v", alg, err)
			continue
		}
		legs = append(legs, leg)
	}
	u.steps = envSteps() - steps0
	w.finish(u, cfg, legs, tr, root)
	tr.end(root)
	u.cost = m.stop()

	phases := obs.GlobalTimers().Snapshot().Sub(phase0)
	gets, hits := tensor.DefaultPool().Stats()
	spans := tr.snapshot()
	rolloutLayerMetrics(u.vals, phases, &env, len(spanDurations(spans, "rl.episode")))
	fedLayerMetrics(u.vals, spans)
	u.vals["tensor.pool_gets"] = float64(gets - gets0)
	u.vals["tensor.pool_hit_rate"] = ratio(float64(hits-hits0), float64(gets-gets0))
	u.vals["core.sample_data_s"] = seconds(durSum(spanDurations(spans, "core.sample_data")))
	u.vals["core.build_clients_s"] = seconds(durSum(spanDurations(spans, "core.build_clients")))
	u.vals["cloudsim.drain_ms"] = median(durFloats(spanDurations(spans, "cloudsim.drain"), millis))
	for _, leg := range legs {
		u.vals["core.train_s."+algKey(leg.alg)] = seconds(leg.wall)
	}

	var overhead, participants []float64
	drops := [2]int{}
	t := buildTree(spans)
	for i, s := range spans {
		if s.Name != "fed.round" {
			continue
		}
		for _, c := range t.children[s.ID] {
			if spans[c].Name == "fed.segment" {
				overhead = append(overhead, millis(spans[i].dur()-spans[c].dur()))
			}
		}
	}
	for _, leg := range legs {
		for _, rep := range leg.reports {
			participants = append(participants, float64(rep.Participants))
			drops[0] += rep.UploadDrops
			drops[1] += rep.DownloadDrops
		}
	}
	u.vals["fed.round_overhead_ms_p50"] = median(overhead)
	u.vals["fed.rounds"] = float64(len(participants))
	u.vals["fed.participants_mean"] = stats.Mean(participants)
	u.vals["fed.upload_drops"] = float64(drops[0])
	u.vals["fed.download_drops"] = float64(drops[1])
	return u, nil
}

// rolloutLayerMetrics derives the rl.* and cloudsim.* per-layer values that
// every workload with training rollouts shares, from the product's own phase
// timers (read, not added) and the environment decorators' counters.
func rolloutLayerMetrics(vals map[string]float64, phases obs.PhaseTimes, env *envCounters, episodes int) {
	vals["rl.rollout_s"] = seconds(phases.Rollout)
	vals["rl.update_s"] = seconds(phases.Update)
	vals["rl.update_share"] = ratio(seconds(phases.Update), seconds(phases.Total()))
	vals["rl.infer_s"] = seconds(phases.Rollout - env.busy())
	vals["rl.transitions"] = float64(env.stepCalls)
	vals["rl.update_ms_per_episode"] = ratio(millis(phases.Update), float64(episodes))
	vals["rl.update_us_per_transition"] = ratio(micros(phases.Update), float64(env.stepCalls))
	vals["cloudsim.observe_ns"] = ratio(float64(env.observeNs), float64(env.observeCalls))
	vals["cloudsim.step_ns"] = ratio(float64(env.stepNs), float64(env.stepCalls))
	vals["cloudsim.observe_calls"] = float64(env.observeCalls)
	vals["cloudsim.step_calls"] = float64(env.stepCalls)
	vals["cloudsim.env_busy_s"] = seconds(env.busy())
	vals["cloudsim.reset_us"] = median(durFloats(env.resets, micros))
	vals["cloudsim.wait_share"] = ratio(float64(env.waits), float64(env.stepCalls))
}

// fedLayerMetrics derives the transport and aggregator values from their
// spans.
func fedLayerMetrics(vals map[string]float64, spans []span) {
	agg := spanDurations(spans, "fed.aggregate")
	vals["fed.aggregate_s"] = seconds(durSum(agg))
	vals["fed.aggregate_calls"] = float64(len(agg))
	vals["fed.aggregate_ms_p50"] = median(durFloats(agg, millis))
	vals["fed.upload_s"] = seconds(durSum(spanDurations(spans, "fed.upload")))
	vals["fed.download_s"] = seconds(durSum(spanDurations(spans, "fed.download")))
}

// trainClients runs n local episodes on every client, in goroutines when
// parallel — fed.Federation.trainSegment and core.trainIndependent, which
// are not exported.
func trainClients(clients []*fed.Client, n int, parallel bool) {
	if !parallel {
		for _, c := range clients {
			c.TrainEpisodes(n)
		}
		return
	}
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *fed.Client) {
			defer wg.Done()
			c.TrainEpisodes(n)
		}(c)
	}
	wg.Wait()
}

// tracedTrain is core.Train for one algorithm, rebuilt from the public
// pieces it is made of so that spans can go around them.
func tracedTrain(tr *tracer, root int, alg core.Algorithm, cfg core.ExperimentConfig, env *envCounters) (trainLeg, error) {
	tg := algTag(algKey(alg))
	start := time.Now()
	legID := tr.beginAt("core.train."+algKey(alg), root, tg, start)
	leg, err := tracedLeg(tr, legID, tg, alg, cfg, env)
	tr.end(legID)
	leg.wall = time.Since(start)
	return leg, err
}

func tracedLeg(tr *tracer, legID int, tg tags, alg core.Algorithm, cfg core.ExperimentConfig, env *envCounters) (trainLeg, error) {
	id := tr.begin("core.sample_data", legID, tg)
	data, err := core.SampleClientData(cfg)
	tr.end(id)
	if err != nil {
		return trainLeg{}, err
	}
	id = tr.begin("core.build_clients", legID, tg)
	clients, err := core.BuildClients(alg, cfg, data)
	tr.end(id)
	if err != nil {
		return trainLeg{}, err
	}
	leg := trainLeg{alg: alg, clients: clients}

	// Sequential clients share one episode tracker (an update ends when the
	// next client's episode begins); parallel clients own one each.
	envs := make([]*timedEnv, len(clients))
	trackers := []*episodeTracker{{tr: tr, alg: tg.alg}}
	for i, c := range clients {
		k := trackers[0]
		if cfg.Parallel && i > 0 {
			k = &episodeTracker{tr: tr, alg: tg.alg}
			trackers = append(trackers, k)
		}
		envs[i] = newTimedEnv(c, k)
		c.TrainEnv = envs[i]
	}
	defer func() {
		for _, e := range envs {
			env.add(&e.envCounters)
		}
	}()
	// A segment is a stretch of local training on every client. Its span is
	// opened before the training starts and closed, with the episode still
	// open on each tracker, at the moment something else happens.
	openSegment := func(parent, round int) int {
		id := tr.begin("fed.segment", parent, tg.at(round))
		for _, k := range trackers {
			k.parent, k.round = id, round
		}
		return id
	}
	closeSegment := func(id int, now time.Time) {
		if !tr.open(id) {
			return
		}
		for _, k := range trackers {
			k.close(now)
		}
		tr.endAt(id, now)
	}

	if alg == core.AlgPPO {
		seg := openSegment(legID, -1)
		trainClients(clients, cfg.Episodes, cfg.Parallel)
		closeSegment(seg, time.Now())
		leg.curve = fed.MeanRewardCurve(clients)
		return leg, nil
	}

	var transport fed.Transport
	var agg fedcore.IntoAggregator
	switch alg {
	case core.AlgFedAvg:
		transport, agg = fed.ActorCriticTransport{}, fed.FedAvg{}
	case core.AlgMFPO:
		beta := cfg.MFPOBeta
		if beta == 0 {
			beta = 0.5
		}
		transport, agg = fed.ActorCriticTransport{}, fed.NewMomentum(beta)
	case core.AlgPFRLDM:
		transport, agg = fed.PublicCriticTransport{}, fed.NewAttention(cfg.Seed)
	default:
		return leg, fmt.Errorf("benchmark: no traced driver for %v", alg)
	}
	k := cfg.K
	if k <= 0 {
		k = len(clients)
		if alg == core.AlgPFRLDM {
			k = fedcore.DefaultK(len(clients))
		}
	}
	tt := &tracedTransport{inner: transport, tr: tr, tg: tg}
	ta := &tracedAgg{inner: agg, tr: tr, tg: tg}
	id = tr.begin("fed.new", legID, tg)
	tt.parent = id
	f, err := fed.New(clients, tt, ta, fed.Options{
		K: k, CommEvery: cfg.CommEvery, Seed: cfg.Seed, Parallel: cfg.Parallel, Codec: cfg.Codec,
	})
	tr.end(id)
	if err != nil {
		return leg, err
	}
	for r := 0; r < cfg.Episodes/f.CommEvery; r++ {
		roundID := tr.begin("fed.round", legID, tg.at(r))
		seg := openSegment(roundID, r)
		tt.parent, tt.tg = roundID, tg.at(r)
		ta.parent.Store(int64(roundID))
		ta.tg = tg.at(r)
		// RunRound trains the segment, then uploads: the first upload marks
		// the segment's end.
		tt.onUpload = func(now time.Time) { closeSegment(seg, now) }
		err := f.RunRound()
		end := time.Now()
		closeSegment(seg, end)
		tr.endAt(roundID, end)
		if err != nil {
			return leg, err
		}
	}
	if rem := cfg.Episodes % f.CommEvery; rem > 0 {
		seg := openSegment(legID, -1)
		trainClients(clients, rem, cfg.Parallel)
		closeSegment(seg, time.Now())
	}
	leg.curve = fed.MeanRewardCurve(clients)
	leg.global, leg.reports, leg.comm = f.Global, f.Reports, f.Comm()
	return leg, nil
}

// countingSink counts the events it forwards.
type countingSink struct {
	inner obs.Sink
	n     atomic.Int64
}

func (s *countingSink) Emit(e *obs.Event) {
	s.n.Add(1)
	s.inner.Emit(e)
}

// sinkOverhead is the obs paired run: the PFRL-DM leg of fig15 with a JSONL
// sink writing to io.Discard, against the same leg with no sink (nilWall).
// It returns the overhead in percent and the number of events emitted.
func sinkOverhead(cfg core.ExperimentConfig, nilWall time.Duration) (pct, events float64, err error) {
	sink := &countingSink{inner: obs.NewJSONL(io.Discard)}
	prev := obs.SetSink(sink)
	defer obs.SetSink(prev)
	t0 := time.Now()
	if _, err := core.Train(core.AlgPFRLDM, cfg); err != nil {
		return 0, 0, err
	}
	with := time.Since(t0)
	return 100 * (seconds(with) - seconds(nilWall)) / seconds(nilWall), float64(sink.n.Load()), nil
}
