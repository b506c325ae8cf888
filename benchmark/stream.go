package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cloudsim"
	"repro/internal/fed"
	"repro/internal/rl"
	"repro/internal/stats"
	"repro/internal/workload"
)

// streamWorkload schedules streamed episodes on a large cluster with a
// pre-trained PPO policy: no update, no federation, only observation, policy
// inference and the simulator. It is the loop `pfrl-bench -exp scale` runs,
// with a learned policy and run to the end of the episode.
type streamWorkload struct{}

const (
	streamTopK        = 8
	streamUtilBuckets = 10
	decisionBlock     = 64 // decisions per latency sample, so the clock costs < 0.1 %
	// policySeed fixes the pre-trained policy: the workload seed varies the
	// arrival streams, not the scheduler under test. A policy's habits (how
	// often it waits or tries a full VM) move the cost of a decision by up to
	// 20 %, which would otherwise read as run-to-run noise across seeds.
	policySeed = 1
)

// streamDatasets alternate by episode: Google arrivals are smooth, Alibaba-2018
// arrivals are bursty and leave the policy waiting more often.
var streamDatasets = []workload.DatasetID{workload.Google, workload.Alibaba2018}

func (streamWorkload) name() string     { return wStream }
func (streamWorkload) serialised() bool { return true }

// streamBlock is the 20-VM Table-3 capacity mix (8:6:4:2, small to large).
func streamBlock() []cloudsim.VMSpec {
	var specs []cloudsim.VMSpec
	for _, g := range []struct {
		n, cpu int
		mem    float64
	}{{8, 8, 64}, {6, 16, 128}, {4, 32, 256}, {2, 64, 512}} {
		for i := 0; i < g.n; i++ {
			specs = append(specs, cloudsim.VMSpec{CPU: g.cpu, Mem: g.mem})
		}
	}
	return specs
}

// streamConfig is the fixed-width top-k observation over n VMs made by
// repeating the 20-VM block. The observation width does not depend on n,
// which is what makes weights trained on the block portable to 5000 VMs.
func streamConfig(n int) cloudsim.Config {
	block := streamBlock()
	specs := make([]cloudsim.VMSpec, n)
	for i := range specs {
		specs[i] = block[i%len(block)]
	}
	cfg := cloudsim.DefaultConfig(specs)
	cfg.TopK = streamTopK
	cfg.UtilBuckets = streamUtilBuckets
	return cfg
}

// streamSetup is everything before the timed region: a PPO policy trained on
// the 20-VM block, and one environment per episode over the big cluster.
type streamSetup struct {
	agent   *rl.PPO
	cfg     cloudsim.Config
	sources []cloudsim.TaskSource
	envs    []*cloudsim.Env
}

// newSource builds episode e's arrival stream.
func (streamWorkload) newSource(seed int64, sc scale, e int, cfg cloudsim.Config) *cloudsim.SamplerSource {
	ds := streamDatasets[e%len(streamDatasets)]
	return cloudsim.NewSamplerSource(workload.Lookup(ds), seed+int64(e), sc.streamTasks, cfg.VMs)
}

// setup pre-trains the policy and builds the environments. wrap, when
// non-nil, decorates each task source before the environment sees it.
func (w streamWorkload) setup(seed int64, sc scale, wrap func(cloudsim.TaskSource) cloudsim.TaskSource) (*streamSetup, error) {
	small := streamConfig(len(streamBlock()))
	small.MaxSteps = 5 * sc.pretrainTasks
	tasks := cloudsim.ClampTasks(
		workload.SampleDataset(workload.Google, rand.New(rand.NewSource(policySeed)), sc.pretrainTasks), small.VMs)
	agent := rl.NewPPO(rl.DefaultConfig(cloudsim.StateDim(small), cloudsim.NumActions(small)),
		rand.New(rand.NewSource(policySeed+1)))
	trainer, err := fed.NewClient(0, "pretrain", small, tasks, agent)
	if err != nil {
		return nil, err
	}
	trainer.TrainEpisodes(sc.pretrainEp)

	s := &streamSetup{agent: agent, cfg: streamConfig(sc.streamVMs)}
	for e := 0; e < sc.streamEpisodes; e++ {
		var src cloudsim.TaskSource = w.newSource(seed, sc, e, s.cfg)
		if wrap != nil {
			src = wrap(src)
		}
		env, err := cloudsim.NewEnvSource(s.cfg, src)
		if err != nil {
			return nil, err
		}
		s.sources = append(s.sources, src)
		s.envs = append(s.envs, env)
	}
	return s, nil
}

func (w streamWorkload) warm(seed int64) error {
	_, err := w.product(seed, smokeScale)
	return err
}

// episodeOutcome checks one finished episode and folds it into the unit.
func (streamWorkload) episodeOutcome(u *unit, d *digest, e int, env *cloudsim.Env, src cloudsim.TaskSource, reward float64, steps int) float64 {
	m := env.Metrics()
	u.ops += m.Total
	u.fail(m.Total-m.Completed, "episode %d: %d of %d tasks completed", e, m.Completed, m.Total)
	if err := src.Err(); err != nil {
		u.fail(m.Completed, "episode %d: task source: %v", e, err)
	}
	if !finite(reward) {
		u.fail(m.Completed, "episode %d: non-finite reward", e)
	}
	d.floats(reward, m.AvgResponse, m.AvgUtil, m.AvgLoadBal, m.EnergyWattSlots, m.Cost)
	d.ints(steps, m.Makespan, m.Completed, m.Total, m.Steps)
	return m.AvgResponse
}

func (w streamWorkload) product(seed int64, sc scale) (*unit, error) {
	u := newUnit()
	t0 := time.Now()
	s, err := w.setup(seed, sc, nil)
	if err != nil {
		return nil, err
	}
	u.setup = time.Since(t0)

	d := newDigest()
	var responses, blocks []float64
	var buf []float64
	m := startMeter()
	for e, env := range s.envs {
		reward := 0.0
		steps := 0
		blockStart := time.Now()
		for !env.Done() {
			buf = env.Observe(buf)
			action, _ := s.agent.SelectAction(buf)
			reward += env.Step(action)
			steps++
			if steps%decisionBlock == 0 {
				now := time.Now()
				blocks = append(blocks, micros(now.Sub(blockStart))/decisionBlock)
				blockStart = now
			}
		}
		env.Drain()
		u.steps += int64(steps)
		responses = append(responses, w.episodeOutcome(u, d, e, env, s.sources[e], reward, steps))
	}
	u.cost = m.stop()
	w.finish(u, d, responses, blocks)
	return u, nil
}

// finish fills the unit from the episodes' outcomes. blocks are per-decision
// latencies in µs, one per 64-decision block.
func (streamWorkload) finish(u *unit, d *digest, responses, blocks []float64) {
	u.digest = d.sum()
	u.counts["env_steps"] = float64(u.steps)
	u.vals["avg_response_slots"] = stats.Mean(responses)
	u.vals["decision_us_p50"] = median(blocks)
	u.vals["cloudsim.decision_us_p99"] = tailQuantile(blocks)
}

// traced is the benchmark's own copy of the product loop with a clock around
// each of the three calls a decision is made of, a counting decorator on the
// task source, one span per 64-decision block, and a first-fit pass over the
// first episode's arrivals that isolates the simulator's cost from the
// policy's.
func (w streamWorkload) traced(seed int64, sc scale, tr *tracer) (*unit, error) {
	u := newUnit()
	var counters []*countingSource
	s, err := w.setup(seed, sc, func(src cloudsim.TaskSource) cloudsim.TaskSource {
		c := &countingSource{inner: src}
		counters = append(counters, c)
		return c
	})
	if err != nil {
		return nil, err
	}

	d := newDigest()
	var responses, blocks []float64
	var buf []float64
	var observeNs, selectNs, stepNs, waits int64
	var drains []time.Duration
	m := startMeter()
	root := tr.begin("run", 0, noTags)
	for e, env := range s.envs {
		ep := tr.begin("stream.episode", root, roundTag(e))
		wait := env.WaitAction()
		reward := 0.0
		steps := 0
		blockStart := time.Now()
		for !env.Done() {
			t0 := time.Now()
			buf = env.Observe(buf)
			t1 := time.Now()
			action, _ := s.agent.SelectAction(buf)
			t2 := time.Now()
			reward += env.Step(action)
			t3 := time.Now()
			observeNs += int64(t1.Sub(t0))
			selectNs += int64(t2.Sub(t1))
			stepNs += int64(t3.Sub(t2))
			if action == wait {
				waits++
			}
			steps++
			if steps%decisionBlock == 0 {
				tr.add("stream.decisions", ep, roundTag(e), blockStart, t3)
				blocks = append(blocks, micros(t3.Sub(blockStart))/decisionBlock)
				blockStart = t3
			}
		}
		t0 := time.Now()
		tr.add("stream.decisions", ep, roundTag(e), blockStart, t0)
		env.Drain()
		t1 := time.Now()
		tr.add("cloudsim.drain", ep, roundTag(e), t0, t1)
		drains = append(drains, t1.Sub(t0))
		tr.endAt(ep, t1)
		u.steps += int64(steps)
		responses = append(responses, w.episodeOutcome(u, d, e, env, s.sources[e], reward, steps))
	}
	timed := time.Now()

	// First-fit over episode 0's arrivals: the same source pulls and Step
	// calls, no Observe and no inference.
	ff := tr.begin("cloudsim.firstfit_pass", root, noTags)
	env, err := cloudsim.NewEnvSource(s.cfg, w.newSource(seed, sc, 0, s.cfg))
	if err != nil {
		return nil, err
	}
	ffSteps := 0
	ffStart := time.Now()
	for !env.Done() {
		env.Step(cloudsim.FirstFit{}.SelectAction(env))
		ffSteps++
	}
	ffNs := time.Since(ffStart)
	tr.end(ff)
	tr.end(root)
	u.cost = m.stop()
	// The traced pass is compared with the product's on the episodes alone.
	u.wall = timed.Sub(m.start)
	w.finish(u, d, responses, blocks)

	var pulls, pullNs int64
	for _, c := range counters {
		pulls += c.pulls
		pullNs += c.ns
	}
	steps := float64(u.steps)
	u.vals["workload.source_pulls"] = float64(pulls)
	u.vals["workload.source_pull_ns"] = ratio(float64(pullNs), float64(pulls))
	u.vals["cloudsim.observe_ns"] = ratio(float64(observeNs), steps)
	u.vals["cloudsim.step_ns"] = ratio(float64(stepNs), steps)
	u.vals["cloudsim.observe_calls"] = steps
	u.vals["cloudsim.step_calls"] = steps
	u.vals["cloudsim.env_busy_s"] = float64(observeNs+stepNs) / 1e9
	u.vals["cloudsim.wait_share"] = ratio(float64(waits), steps)
	u.vals["cloudsim.drain_ms"] = median(durFloats(drains, millis))
	u.vals["cloudsim.firstfit_step_ns"] = ratio(float64(ffNs.Nanoseconds()), float64(ffSteps))
	u.vals["rl.select_action_ns"] = ratio(float64(selectNs), steps)
	if pulls == 0 {
		return nil, fmt.Errorf("benchmark: the task-source decorator saw no pulls")
	}
	return u, nil
}
