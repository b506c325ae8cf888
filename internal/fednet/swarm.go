// Swarm harness: a deterministic many-client async federation run over a
// loopback fednet deployment, with the fault injector on. The harness
// serializes every RPC through a virtual-time scheduler — a heap of (next
// activation, client id) pairs driven by per-client seeded pacing RNGs — and
// overlaps only the local training segments, inside one commit window at a
// time (see RunSwarm), so a run is a pure function of its SwarmConfig at any
// GOMAXPROCS: faults, retries, staleness drops, and the committed globals all
// replay bit-identically under the same seed. That determinism is what makes
// a 100+-client chaos run assertable in CI.
package fednet

import (
	"container/heap"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/cloudsim"
	"repro/internal/core"
	"repro/internal/fed"
	"repro/internal/fedcore"
	"repro/internal/rl"
	"repro/internal/workload"
)

// swarmProfiles are the heterogeneous cluster shapes cycled across client
// ids. Their federation caps (core.CapsFor) pad every client's observation
// (and therefore transport payload) to the same fixed width.
var swarmProfiles = []core.ClientSpec{
	{VMs: []cloudsim.VMSpec{{CPU: 4, Mem: 16}, {CPU: 8, Mem: 32}}},
	{VMs: []cloudsim.VMSpec{{CPU: 2, Mem: 8}, {CPU: 4, Mem: 8}, {CPU: 8, Mem: 16}}},
	{VMs: []cloudsim.VMSpec{{CPU: 16, Mem: 64}}},
	{VMs: []cloudsim.VMSpec{{CPU: 4, Mem: 8}, {CPU: 4, Mem: 32}, {CPU: 8, Mem: 16}}},
}

// swarmDatasets are the workload models cycled across client ids, so the
// swarm is heterogeneous in data as well as hardware.
var swarmDatasets = []workload.DatasetID{workload.Google, workload.Alibaba2017, workload.Alibaba2018}

// SwarmConfig parameterizes a swarm run. Zero values pick the documented
// defaults.
type SwarmConfig struct {
	// Clients is the swarm size (required, >= 1).
	Clients int
	// K is the per-commit aggregation fan-in (default: Clients).
	K int
	// Buffer is the async commit buffer B (default: K).
	Buffer int
	// StalenessBound caps accepted staleness. The zero value accepts only
	// fresh deltas; negative means unbounded (pfrl-node's -staleness-bound
	// defaults to -1).
	StalenessBound int
	// Rounds is how many (train, submit) rounds each client performs
	// (default 2).
	Rounds int
	// CommEvery is the local episodes per round (default 1).
	CommEvery int
	// Tasks is the per-client workload size (default 8).
	Tasks int
	// Seed drives everything: client construction, pacing, faults, retry
	// jitter. Same seed, same run.
	Seed int64
	// Faults is the fault-injection template applied to every client's
	// transport; its Seed field is ignored and re-derived per client.
	Faults fed.FaultSpec
	// Retries bounds per-step client retries (default 8 — chaos runs need
	// headroom).
	Retries int
	// Codec configures the wire codec for every client in the swarm. The
	// zero value is the lossless identity tier.
	Codec fedcore.CodecConfig
}

func (c *SwarmConfig) defaults() error {
	if c.Clients < 1 {
		return fmt.Errorf("fednet: swarm needs at least one client, got %d", c.Clients)
	}
	if c.K <= 0 {
		c.K = c.Clients
	}
	if c.Rounds <= 0 {
		c.Rounds = 2
	}
	if c.CommEvery <= 0 {
		c.CommEvery = 1
	}
	if c.Tasks <= 0 {
		c.Tasks = 8
	}
	if c.Retries <= 0 {
		c.Retries = 8
	}
	return nil
}

// SwarmResult is the deterministic summary of a swarm run.
type SwarmResult struct {
	// Global is the final committed global payload (post-flush).
	Global fed.Payload
	// Reports are the committed round reports in order, staleness and
	// duplicate drop counts included.
	Reports []RoundInfo
	// Rounds is the number of committed aggregation rounds.
	Rounds int
	// Flushed reports whether shutdown force-committed a partial buffer.
	Flushed bool
	// Retries is the total number of client step retries (any cause).
	Retries int
	// Faults aggregates injected fault events across all clients.
	Faults fed.FaultStats
	// StaleDrops / DupDrops total the per-round drop windows.
	StaleDrops, DupDrops int
	// MeanReward is the fleet-mean reward of the final training episode.
	MeanReward float64
	// Comm is the server-side communication ledger: scalar counts plus the
	// measured wire bytes of every accepted frame.
	Comm fed.CommStats
	// Elapsed is the wall-clock time of the schedule drive loop (dial and
	// teardown excluded), for round-throughput reporting. It is the one
	// non-deterministic field of the result.
	Elapsed time.Duration
}

// swarmEvent is one scheduled client activation in virtual time.
type swarmEvent struct {
	at     int64 // virtual timestamp; ties break on id
	id     int
	rounds int // rounds completed so far
}

// swarmActivation is an activation between its Fetch and its Sync: trained
// closes when a worker has finished the training segment.
type swarmActivation struct {
	swarmEvent
	trained chan struct{}
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
func (h *swarmHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// swarmClient builds one heterogeneous in-process client: cluster shape and
// workload model cycle with the id, observation width is federation-wide.
func swarmClient(id int, seed int64, tasks int, caps core.FederationCaps) (*fed.Client, error) {
	cfg := caps.EnvConfig(swarmProfiles[id%len(swarmProfiles)])
	rng := rand.New(rand.NewSource(seed))
	sampled := cloudsim.ClampTasks(
		workload.SampleDataset(swarmDatasets[id%len(swarmDatasets)], rng, tasks), cfg.VMs)
	agent := rl.NewDualCriticPPO(
		rl.DefaultConfig(cloudsim.StateDim(cfg), cfg.PadVMs+1),
		rand.New(rand.NewSource(seed*31+7)))
	return fed.NewClient(id, fmt.Sprintf("swarm-%d", id), cfg, sampled, agent)
}

// RunSwarm executes one deterministic swarm run: builds Clients
// heterogeneous in-process clients, boots a loopback async server, wraps
// every client transport in the seeded fault injector, and drives the fleet
// through a virtual-time schedule until every client has finished its
// rounds. Shutdown flushes the partial buffer and runs a final fetch pass so
// every client installs the last commit.
//
// The drive loop consumes the schedule a commit window at a time — the
// activations that cannot see a commit between the first one's Fetch and the
// last one's Sync. On the driving goroutine it runs the window's Fetches in
// schedule order, handing each training segment to one of GOMAXPROCS workers,
// then the window's Syncs in the same order, each as its training finishes.
// Every RPC therefore reaches the server in the order a one-at-a-time drive
// issues it, and the result is that drive's bit for bit (DESIGN §7 "Chaos at
// scale" has the argument, TestSwarmWindowedMatchesSerial the check): only
// downlink tag numbers, the interleaving of obs events and Elapsed may differ.
func RunSwarm(cfg SwarmConfig) (*SwarmResult, error) {
	return runSwarm(cfg, (*swarmFleet).drive)
}

// swarmFleet is what a drive loop works on: the dialled clients (rcs[i].Local
// is client i), their server, and the virtual-time schedule — each client's
// activations are paced by its own seeded RNG, and the heap serializes the
// fleet into one deterministic interleave regardless of wall-clock behavior.
type swarmFleet struct {
	cfg    SwarmConfig
	srv    *Server
	rcs    []*RemoteClient
	pacing []*rand.Rand
	h      swarmHeap
}

// fail names the activation a drive loop gave up on.
func (f *swarmFleet) fail(ev swarmEvent, err error) error {
	return fmt.Errorf("fednet: swarm client %d round %d: %w", ev.id, ev.rounds, err)
}

// runSwarm is RunSwarm with the drive loop a parameter: the seam through which
// the tests run the one-at-a-time reference drive over the same fleet.
func runSwarm(cfg SwarmConfig, drive func(*swarmFleet) error) (*SwarmResult, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	// The clients are built on as many goroutines as the drive trains on;
	// each is seeded by its id alone.
	caps := core.CapsFor(swarmProfiles)
	clients := make([]*fed.Client, cfg.Clients)
	if err := fed.Fan(cfg.Clients, runtime.GOMAXPROCS(0), func(i int) error {
		c, err := swarmClient(i, cfg.Seed+int64(i)*1000003, cfg.Tasks, caps)
		if err != nil {
			return fmt.Errorf("fednet: swarm client %d: %w", i, err)
		}
		clients[i] = c
		return nil
	}); err != nil {
		return nil, err
	}

	transport := fed.PublicCriticTransport{}
	// NewServer's engine copies initial before client 0 uploads again.
	initial, err := transport.Upload(clients[0])
	if err != nil {
		return nil, err
	}
	srv, err := NewServer(ServerConfig{
		Clients:        cfg.Clients,
		K:              cfg.K,
		Seed:           cfg.Seed,
		InitialGlobal:  initial,
		Aggregator:     fed.NewAttention(cfg.Seed),
		Async:          true,
		StalenessBound: cfg.StalenessBound,
		Buffer:         cfg.Buffer,
		Codec:          cfg.Codec,
	})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}

	// Dial with the clean transport so the join-time install cannot be hit
	// by an injected fault, then swap the fault injector in for the run.
	rcs := make([]*RemoteClient, cfg.Clients)
	faulties := make([]*fed.FaultyTransport, cfg.Clients)
	for i, c := range clients {
		rc, err := DialOptions(addr, c, transport, Options{
			Retries:   cfg.Retries,
			RetryBase: time.Millisecond,
			RetryMax:  4 * time.Millisecond,
			Seed:      cfg.Seed + int64(i)*7919,
		})
		if err != nil {
			return nil, fmt.Errorf("fednet: swarm dial %d: %w", i, err)
		}
		defer rc.Close()
		if !rc.Async() {
			return nil, fmt.Errorf("fednet: swarm server not in async mode")
		}
		spec := cfg.Faults
		spec.Seed = cfg.Seed + int64(i)*104729
		faulty := fed.NewFaultyTransport(transport, spec)
		rc.Transport = faulty
		rcs[i] = rc
		faulties[i] = faulty
	}

	f := &swarmFleet{cfg: cfg, srv: srv, rcs: rcs, pacing: make([]*rand.Rand, cfg.Clients), h: make(swarmHeap, 0, cfg.Clients)}
	for i := range rcs {
		f.pacing[i] = rand.New(rand.NewSource(cfg.Seed + int64(i)*15485863))
		f.h = append(f.h, swarmEvent{at: 1 + f.pacing[i].Int63n(97), id: i})
	}
	heap.Init(&f.h)
	driveStart := time.Now()
	if err := drive(f); err != nil {
		return nil, err
	}

	res := &SwarmResult{Elapsed: time.Since(driveStart)}
	_, res.Flushed = srv.Flush()
	for _, rc := range rcs {
		if _, err := rc.Fetch(); err != nil {
			return nil, fmt.Errorf("fednet: swarm final fetch %d: %w", rc.ID(), err)
		}
		res.Retries += rc.Stats().Retries
	}
	res.Global = srv.Global()
	res.Reports = srv.Reports()
	res.Rounds = srv.Rounds()
	res.Comm = srv.Comm()
	for _, rep := range res.Reports {
		res.StaleDrops += rep.StaleDrops
		res.DupDrops += rep.DupDrops
	}
	for _, faulty := range faulties {
		s := faulty.Stats()
		res.Faults.Drops += s.Drops
		res.Faults.Delays += s.Delays
		res.Faults.Duplicates += s.Duplicates
		res.Faults.Corruptions += s.Corruptions
	}
	if curve := fed.MeanRewardCurve(clients); len(curve) > 0 {
		res.MeanReward = curve[len(curve)-1]
	}
	return res, nil
}

// drive runs the schedule to its end, a commit window at a time (see
// RunSwarm). It returns the first error in schedule order, and only once no
// worker holds a client: the caller closes them next.
func (f *swarmFleet) drive() error {
	// A window holds a client at most once, so a send never blocks the driver.
	// On an error return the deferred teardown drops the training segments no
	// worker has started and waits out the ones in flight.
	train := make(chan swarmActivation, len(f.rcs))
	var workers sync.WaitGroup
	for range runtime.GOMAXPROCS(0) {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for a := range train {
				f.rcs[a.id].Local.TrainEpisodes(f.cfg.CommEvery)
				close(a.trained)
			}
		}()
	}
	defer func() {
		close(train)
		for range train {
		}
		workers.Wait()
	}()

	window := make([]swarmActivation, 0, len(f.rcs))
	inWindow := make([]bool, len(f.rcs))
	for f.h.Len() > 0 {
		// The window is the next activations in heap order up to the one whose
		// Sync can fill the buffer: each Sync adds at most one accepted arrival,
		// so none before it commits, and between commits a Fetch reply reads
		// nothing another client's Sync writes. A client recurring in the
		// window cuts it: its next Fetch follows its own Sync. The successor is
		// scheduled at the pop — its pacing draw does not depend on the round.
		var fetchErr error
		window = window[:0]
		clear(inWindow)
		room := max(1, f.srv.engine.Headroom())
		for len(window) < room && f.h.Len() > 0 && !inWindow[f.h[0].id] {
			ev := heap.Pop(&f.h).(swarmEvent)
			if ev.rounds+1 < f.cfg.Rounds {
				heap.Push(&f.h, swarmEvent{at: ev.at + 1 + f.pacing[ev.id].Int63n(97), id: ev.id, rounds: ev.rounds + 1})
			}
			if err := f.rcs[ev.id].fetchRound(); err != nil {
				// The Syncs the window owes come first in schedule order.
				fetchErr = f.fail(ev, err)
				break
			}
			a := swarmActivation{ev, make(chan struct{})}
			train <- a
			window = append(window, a)
			inWindow[ev.id] = true
		}
		for _, a := range window {
			<-a.trained
			if err := f.rcs[a.id].syncRound(); err != nil {
				return f.fail(a.swarmEvent, err)
			}
		}
		if fetchErr != nil {
			return fetchErr
		}
	}
	return nil
}
