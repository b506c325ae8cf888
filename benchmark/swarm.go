package main

import (
	"container/heap"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cloudsim"
	"repro/internal/fed"
	"repro/internal/fedcore"
	"repro/internal/fednet"
	"repro/internal/obs"
	"repro/internal/rl"
	"repro/internal/stats"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// swarmWorkload is the networked federation end to end: fednet.RunSwarm with
// 104 heterogeneous clients over loopback TCP, buffered async aggregation,
// the int8+delta codec, and the fault injector on.
type swarmWorkload struct{}

func (swarmWorkload) name() string     { return wSwarm }
func (swarmWorkload) serialised() bool { return true }

func (swarmWorkload) config(seed int64, sc scale) fednet.SwarmConfig {
	return fednet.SwarmConfig{
		Clients: sc.swarmClients, K: sc.swarmK, Buffer: sc.swarmBuffer, StalenessBound: 4,
		Rounds: sc.swarmRounds, CommEvery: 1, Tasks: 8, Seed: seed, Retries: 8,
		Codec:  fedcore.CodecConfig{Tier: fedcore.TierI8, Delta: true},
		Faults: fed.FaultSpec{Drop: 0.05, Duplicate: 0.05, Corrupt: 0.02},
	}
}

func (w swarmWorkload) warm(seed int64) error {
	_, err := fednet.RunSwarm(w.config(seed, smokeScale))
	return err
}

// swarmOutcome is what a swarm pass produced, from either driver.
type swarmOutcome struct {
	global     fed.Payload
	reports    []fednet.RoundInfo
	rounds     int
	retries    int
	comm       fed.CommStats
	meanReward float64
	elapsed    time.Duration
}

func (w swarmWorkload) product(seed int64, sc scale) (*unit, error) {
	cfg := w.config(seed, sc)
	u := newUnit()
	steps0 := envSteps()
	// RunSwarm builds its clients, dials, drives and tears down in one call;
	// the drive loop is the timed region (SwarmResult.Elapsed) and the rest
	// is set-up. CPU and allocation cannot be split at that boundary from
	// outside, so on this workload they cover the whole call.
	m := startMeter()
	res, err := fednet.RunSwarm(cfg)
	u.cost = m.stop()
	u.ops = cfg.Clients * cfg.Rounds
	if err != nil {
		u.fail(u.ops, "fednet.RunSwarm: %v", err)
		return u, nil
	}
	u.setup = u.wall - res.Elapsed
	u.wall = res.Elapsed
	u.steps = envSteps() - steps0
	w.finish(u, swarmOutcome{
		global: res.Global, reports: res.Reports, rounds: res.Rounds, retries: res.Retries,
		comm: res.Comm, meanReward: res.MeanReward, elapsed: res.Elapsed,
	})
	return u, nil
}

// finish checks, digests and reports a swarm outcome.
func (swarmWorkload) finish(u *unit, o swarmOutcome) {
	d := newDigest()
	d.floats(o.global...)
	d.floats(o.meanReward)
	stale, dup, participants := 0, 0, 0
	for _, rep := range o.reports {
		// The server selects from whoever pushed, so Participants can never
		// exceed either the selection or the arrivals.
		if rep.Participants > rep.Selected || rep.Participants > rep.Arrived {
			u.fail(1, "round %d report inconsistent: %+v", rep.Round, rep)
		}
		stale += rep.StaleDrops
		dup += rep.DupDrops
		participants += rep.Participants
		d.ints(rep.Round, rep.Selected, rep.Arrived, rep.Participants, rep.UploadDrops, rep.StaleDrops, rep.DupDrops)
	}
	if !finite(o.meanReward) {
		u.fail(u.ops, "non-finite mean reward")
	}
	u.digest = d.sum()
	u.counts["env_steps"] = float64(u.steps)
	u.counts["rounds"] = float64(o.rounds)
	u.counts["retries"] = float64(o.retries)
	u.counts["wire_bytes"] = float64(o.comm.Bytes())
	u.counts["stale_drops"] = float64(stale)
	u.counts["dup_drops"] = float64(dup)
	u.vals["rounds_per_s"] = ratio(float64(o.rounds), seconds(o.elapsed))
	u.vals["wire_bytes_per_round"] = ratio(float64(o.comm.Bytes()), float64(o.rounds))
	u.vals["reward_last5"] = o.meanReward
	u.vals["fedcore.commits"] = float64(o.rounds)
	u.vals["fedcore.stale_drops"] = float64(stale)
	u.vals["fedcore.dup_drops"] = float64(dup)
	u.vals["fedcore.accept_ratio"] = ratio(float64(participants), float64(participants+stale+dup))
	u.vals["fedcore.compression_ratio"] = o.comm.CompressionRatio()
	u.vals["fednet.retries"] = float64(o.retries)
	u.vals["fednet.retry_share"] = ratio(float64(o.retries), float64(u.ops))
}

// The swarm's client fleet, copied from fednet/swarm.go (unexported there):
// cluster shapes and datasets cycle with the client id; the observation is
// padded to the widest shape so every payload has the same length. The
// digest comparison with RunSwarm fails if these drift from the product's.
var swarmProfiles = [][]cloudsim.VMSpec{
	{{CPU: 4, Mem: 16}, {CPU: 8, Mem: 32}},
	{{CPU: 2, Mem: 8}, {CPU: 4, Mem: 8}, {CPU: 8, Mem: 16}},
	{{CPU: 16, Mem: 64}},
	{{CPU: 4, Mem: 8}, {CPU: 4, Mem: 32}, {CPU: 8, Mem: 16}},
}

var swarmDatasets = []workload.DatasetID{workload.Google, workload.Alibaba2017, workload.Alibaba2018}

func swarmClient(id int, seed int64, tasks int) (*fed.Client, error) {
	cfg := cloudsim.DefaultConfig(swarmProfiles[id%len(swarmProfiles)])
	cfg.PadVMs, cfg.PadVCPUs, cfg.MaxCPU, cfg.MaxMem = 3, 16, 16, 64
	rng := rand.New(rand.NewSource(seed))
	sampled := cloudsim.ClampTasks(
		workload.SampleDataset(swarmDatasets[id%len(swarmDatasets)], rng, tasks), cfg.VMs)
	agent := rl.NewDualCriticPPO(
		rl.DefaultConfig(cloudsim.StateDim(cfg), cfg.PadVMs+1),
		rand.New(rand.NewSource(seed*31+7)))
	return fed.NewClient(id, fmt.Sprintf("swarm-%d", id), cfg, sampled, agent)
}

// swarmPayloadDim is the length of the public-critic payload the swarm
// moves; the codec and reducer probes run at this size.
func swarmPayloadDim() int {
	c, err := swarmClient(0, 1, 1)
	if err != nil {
		panic(err) // the fleet definition above is static
	}
	return fed.PublicCriticTransport{}.PayloadSize(c)
}

// swarmEvent is one scheduled client activation in virtual time.
type swarmEvent struct {
	at     int64
	id     int
	rounds int
}

type swarmHeap []swarmEvent

func (h swarmHeap) Len() int { return len(h) }
func (h swarmHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].id < h[j].id
}
func (h swarmHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *swarmHeap) Push(x any)   { *h = append(*h, x.(swarmEvent)) }
func (h *swarmHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// traced rebuilds fednet.RunSwarm's loop from the public pieces — NewClient,
// NewServer, DialOptions, RunRounds, Fetch, Flush — with the same seeds and
// the same virtual-time pacing, so that every activation, transport call and
// server-side aggregation gets a span.
func (w swarmWorkload) traced(seed int64, sc scale, tr *tracer) (*unit, error) {
	cfg := w.config(seed, sc)
	u := newUnit()
	u.ops = cfg.Clients * cfg.Rounds
	gets0, hits0 := tensor.DefaultPool().Stats()
	phase0 := obs.GlobalTimers().Snapshot()
	steps0 := envSteps()
	m := startMeter()
	root := tr.begin("run", 0, noTags)

	setup := tr.begin("fednet.setup", root, noTags)
	id := tr.begin("fednet.build_clients", setup, noTags)
	clients := make([]*fed.Client, cfg.Clients)
	for i := range clients {
		c, err := swarmClient(i, cfg.Seed+int64(i)*1000003, cfg.Tasks)
		if err != nil {
			return nil, err
		}
		clients[i] = c
	}
	tr.end(id)

	transport := fed.PublicCriticTransport{}
	initial, err := transport.Upload(clients[0])
	if err != nil {
		return nil, err
	}
	agg := &tracedAgg{inner: fed.NewAttention(cfg.Seed), tr: tr, tg: noTags}
	id = tr.begin("fednet.server_start", setup, noTags)
	srv, err := fednet.NewServer(fednet.ServerConfig{
		Clients: cfg.Clients, K: cfg.K, Seed: cfg.Seed, InitialGlobal: initial, Aggregator: agg,
		Async: true, StalenessBound: cfg.StalenessBound, Buffer: cfg.Buffer, Codec: cfg.Codec,
	})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	addr, err := srv.Listen("127.0.0.1:0")
	tr.end(id)
	if err != nil {
		return nil, err
	}

	// One tracker serves the whole fleet: the virtual-time heap runs one
	// client at a time.
	tracker := &episodeTracker{tr: tr}
	envs := make([]*timedEnv, cfg.Clients)
	rcs := make([]*fednet.RemoteClient, cfg.Clients)
	tts := make([]*tracedTransport, cfg.Clients)
	for i, c := range clients {
		id = tr.begin("fednet.dial", setup, clientTag(i))
		rc, err := fednet.DialOptions(addr, c, transport, fednet.Options{
			Retries: cfg.Retries, RetryBase: time.Millisecond, RetryMax: 4 * time.Millisecond,
			Seed: cfg.Seed + int64(i)*7919,
		})
		tr.end(id)
		if err != nil {
			return nil, err
		}
		defer rc.Close()
		spec := cfg.Faults
		spec.Seed = cfg.Seed + int64(i)*104729
		tts[i] = &tracedTransport{inner: fed.NewFaultyTransport(transport, spec), tr: tr, tg: noTags,
			onUpload: tracker.close}
		rc.Transport = tts[i]
		rcs[i] = rc
		envs[i] = newTimedEnv(c, tracker)
		c.TrainEnv = envs[i]
	}
	tr.end(setup)

	pacing := make([]*rand.Rand, cfg.Clients)
	h := make(swarmHeap, 0, cfg.Clients)
	for i := range rcs {
		pacing[i] = rand.New(rand.NewSource(cfg.Seed + int64(i)*15485863))
		h = append(h, swarmEvent{at: 1 + pacing[i].Int63n(97), id: i})
	}
	heap.Init(&h)
	driveStart := time.Now()
	drive := tr.beginAt("fednet.drive", root, noTags, driveStart)
	for h.Len() > 0 {
		ev := heap.Pop(&h).(swarmEvent)
		act := tr.begin("fednet.activation", drive, tags{round: ev.rounds, client: ev.id})
		tracker.parent, tracker.round = act, ev.rounds
		tts[ev.id].parent, tts[ev.id].tg = act, tags{round: ev.rounds, client: ev.id}
		agg.parent.Store(int64(act))
		err := rcs[ev.id].RunRounds(1, cfg.CommEvery)
		now := time.Now()
		tracker.close(now)
		tr.endAt(act, now)
		if err != nil {
			u.fail(1, "client %d round %d: %v", ev.id, ev.rounds, err)
			break
		}
		ev.rounds++
		if ev.rounds < cfg.Rounds {
			ev.at += 1 + pacing[ev.id].Int63n(97)
			heap.Push(&h, ev)
		}
	}
	driveEnd := time.Now()
	tr.endAt(drive, driveEnd)
	o := swarmOutcome{elapsed: driveEnd.Sub(driveStart)}

	id = tr.begin("fednet.flush", root, noTags)
	agg.parent.Store(int64(id))
	srv.Flush()
	tr.end(id)
	fetch := tr.begin("fednet.final_fetch", root, noTags)
	for i, rc := range rcs {
		tts[i].parent, tts[i].tg = fetch, clientTag(i)
		if _, err := rc.Fetch(); err != nil {
			u.fail(1, "final fetch %d: %v", i, err)
		}
		o.retries += rc.Stats().Retries
	}
	tr.end(fetch)
	tr.end(root)
	u.cost = m.stop()
	u.wall = o.elapsed
	u.steps = envSteps() - steps0

	o.global, o.reports, o.rounds, o.comm = srv.Global(), srv.Reports(), srv.Rounds(), srv.Comm()
	if curve := fed.MeanRewardCurve(clients); len(curve) > 0 {
		o.meanReward = curve[len(curve)-1]
	}
	w.finish(u, o)

	var env envCounters
	for _, e := range envs {
		env.add(&e.envCounters)
	}
	phases := obs.GlobalTimers().Snapshot().Sub(phase0)
	gets, hits := tensor.DefaultPool().Stats()
	spans := tr.snapshot()
	rolloutLayerMetrics(u.vals, phases, &env, len(spanDurations(spans, "rl.episode")))
	fedLayerMetrics(u.vals, spans)
	u.vals["tensor.pool_gets"] = float64(gets - gets0)
	u.vals["tensor.pool_hit_rate"] = ratio(float64(hits-hits0), float64(gets-gets0))

	// An activation's self-synchronisation time is the activation minus the
	// local training inside it (its rl.episode children): fetch, upload,
	// RPC round trip with the server-side commit, install, and retry sleeps.
	t := buildTree(spans)
	var acts, syncSelf []float64
	for i, s := range spans {
		if s.Name != "fednet.activation" {
			continue
		}
		local := time.Duration(0)
		for _, c := range t.children[s.ID] {
			if spans[c].Name == "rl.episode" {
				local += spans[c].dur()
			}
		}
		acts = append(acts, millis(spans[i].dur()))
		syncSelf = append(syncSelf, millis(spans[i].dur()-local))
	}
	u.vals["fednet.activation_ms_p50"] = median(acts)
	u.vals["fednet.activation_ms_p95"] = quantile(acts, 0.95)
	u.vals["fednet.sync_self_ms_p50"] = median(syncSelf)
	u.vals["fednet.dial_ms_mean"] = stats.Mean(durFloats(spanDurations(spans, "fednet.dial"), millis))
	u.vals["fednet.final_fetch_ms"] = millis(durSum(spanDurations(spans, "fednet.final_fetch")))
	return u, nil
}
