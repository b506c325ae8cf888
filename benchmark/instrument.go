package main

import (
	"sync/atomic"
	"time"

	"repro/internal/cloudsim"
	"repro/internal/fed"
	"repro/internal/fedcore"
	"repro/internal/workload"
)

// The decorators in this file sit on the program's public seams
// (fed.Client.TrainEnv, fed.Transport, fed.Aggregator, cloudsim.TaskSource)
// and record what crosses them. They forward every call unchanged and touch
// no RNG, so an instrumented pass stays bit-identical to the product's —
// which the digest comparison checks on every traced run.

// envCounters accumulates the per-step environment calls of a pass. A step
// is too short for a span (tens of thousands per second), so these are
// calls + busy nanoseconds.
type envCounters struct {
	observeCalls, stepCalls, waits int64
	observeNs, stepNs              int64
	resets                         []time.Duration
}

func (a *envCounters) add(b *envCounters) {
	a.observeCalls += b.observeCalls
	a.stepCalls += b.stepCalls
	a.waits += b.waits
	a.observeNs += b.observeNs
	a.stepNs += b.stepNs
	a.resets = append(a.resets, b.resets...)
}

func (a *envCounters) busy() time.Duration {
	ns := a.observeNs + a.stepNs
	for _, r := range a.resets {
		ns += int64(r)
	}
	return time.Duration(ns)
}

// episodeTracker turns the calls a timedEnv sees into one rl.episode span
// per training episode, with cloudsim.reset, rl.rollout and rl.update
// children. fed.Client.TrainEpisodes gives no hook at the rollout/update
// boundary, so the boundaries are inferred: the rollout ends at the last
// environment call, the update ends when the next thing happens on this
// goroutine (the next episode's Begin, or the caller closing the segment).
// Sequential clients share one tracker; parallel clients own one each.
type episodeTracker struct {
	tr     *tracer
	parent int
	alg    string
	round  int

	env             *timedEnv // the open episode's env, nil when none is open
	start, resetEnd time.Time
}

func (k *episodeTracker) open(env *timedEnv, start, resetEnd time.Time) {
	k.env, k.start, k.resetEnd = env, start, resetEnd
}

// close ends the open episode at now, if there is one.
func (k *episodeTracker) close(now time.Time) {
	if k.env == nil {
		return
	}
	tg := tags{alg: k.alg, round: k.round, client: k.env.c.ID}
	ep := k.tr.add("rl.episode", k.parent, tg, k.start, now)
	k.tr.add("cloudsim.reset", ep, tg, k.start, k.resetEnd)
	k.tr.add("rl.rollout", ep, tg, k.resetEnd, k.env.last)
	k.tr.add("rl.update", ep, tg, k.env.last, now)
	k.env = nil
}

// timedEnv is the fed.EpisodeEnv installed as Client.TrainEnv by the traced
// drivers: the client's own cloudsim.Env with a clock around every call.
// Begin does what TrainEpisodes does without a TrainEnv (Env.Reset(Tasks)).
type timedEnv struct {
	c       *fed.Client
	tracker *episodeTracker
	envCounters
	last time.Time // end of the most recent environment call
	wait int       // the wait action's index
}

func newTimedEnv(c *fed.Client, tracker *episodeTracker) *timedEnv {
	return &timedEnv{c: c, tracker: tracker, wait: c.Env.WaitAction()}
}

func (e *timedEnv) Begin() {
	t0 := time.Now()
	e.tracker.close(t0)
	e.c.Env.Reset(e.c.Tasks)
	t1 := time.Now()
	e.resets = append(e.resets, t1.Sub(t0))
	e.last = t1
	e.tracker.open(e, t0, t1)
}

func (e *timedEnv) Observe(dst []float64) []float64 {
	t0 := time.Now()
	out := e.c.Env.Observe(dst)
	e.last = time.Now()
	e.observeNs += int64(e.last.Sub(t0))
	e.observeCalls++
	return out
}

func (e *timedEnv) Step(action int) float64 {
	if action == e.wait {
		e.waits++
	}
	t0 := time.Now()
	r := e.c.Env.Step(action)
	e.last = time.Now()
	e.stepNs += int64(e.last.Sub(t0))
	e.stepCalls++
	return r
}

func (e *timedEnv) Done() bool              { return e.c.Env.Done() }
func (e *timedEnv) Truncated() bool         { return e.c.Env.Truncated() }
func (e *timedEnv) StateDim() int           { return e.c.Env.StateDim() }
func (e *timedEnv) NumActions() int         { return e.c.Env.NumActions() }
func (e *timedEnv) FeasibleActions() []bool { return e.c.Env.FeasibleActions() }

// tracedTransport records a fed.upload / fed.download span around every
// transport call. onUpload, when set, runs at the start of every Upload: the
// first upload after a training segment is where that segment ended.
type tracedTransport struct {
	inner    fed.Transport
	tr       *tracer
	parent   int
	tg       tags
	onUpload func(now time.Time)
}

func (t *tracedTransport) Name() string { return t.inner.Name() }

func (t *tracedTransport) Upload(c *fed.Client) (fed.Payload, error) {
	t0 := time.Now()
	if t.onUpload != nil {
		t.onUpload(t0)
	}
	p, err := t.inner.Upload(c)
	t.tr.add("fed.upload", t.parent, t.tg.of(c.ID), t0, time.Now())
	return p, err
}

func (t *tracedTransport) Download(c *fed.Client, p fed.Payload) error {
	t0 := time.Now()
	err := t.inner.Download(c, p)
	t.tr.add("fed.download", t.parent, t.tg.of(c.ID), t0, time.Now())
	return err
}

func (t *tracedTransport) PayloadSize(c *fed.Client) int { return t.inner.PayloadSize(c) }

// tracedAgg records a fed.aggregate span around every aggregation. It
// implements both Aggregate and AggregateInto so the round engine takes the
// same pooled path it takes with the bare aggregator. On the swarm it runs on
// the server's RPC goroutines, hence the atomic parent.
type tracedAgg struct {
	inner  fedcore.IntoAggregator
	tr     *tracer
	parent atomic.Int64
	tg     tags
}

func (a *tracedAgg) Name() string { return a.inner.Name() }

func (a *tracedAgg) Aggregate(uploads []fed.Payload) ([]fed.Payload, fed.Payload) {
	t0 := time.Now()
	p, g := a.inner.Aggregate(uploads)
	a.tr.add("fed.aggregate", int(a.parent.Load()), a.tg, t0, time.Now())
	return p, g
}

func (a *tracedAgg) AggregateInto(uploads []fed.Payload, arena *fedcore.PayloadArena) ([]fed.Payload, fed.Payload) {
	t0 := time.Now()
	p, g := a.inner.AggregateInto(uploads, arena)
	a.tr.add("fed.aggregate", int(a.parent.Load()), a.tg, t0, time.Now())
	return p, g
}

// countingSource counts and times the pulls of a cloudsim.TaskSource.
type countingSource struct {
	inner cloudsim.TaskSource
	pulls int64
	ns    int64
}

func (s *countingSource) Next() (workload.Task, bool) {
	t0 := time.Now()
	t, ok := s.inner.Next()
	s.ns += int64(time.Since(t0))
	s.pulls++
	return t, ok
}

func (s *countingSource) Total() int { return s.inner.Total() }
func (s *countingSource) Err() error { return s.inner.Err() }
