package rl

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/nn"
)

// stampEnv's observation at step i is base+i in every feature, written into
// the caller's dst whenever it fits — so a collector that keeps a reference
// to the scratch, or copies it after the next Observe, records a later step.
type stampEnv struct {
	dim, horizon int
	base         float64
	truncate     bool // the horizon is a cut, not a terminal

	t int
}

func (e *stampEnv) Observe(dst []float64) []float64 {
	if cap(dst) < e.dim {
		dst = make([]float64, e.dim)
	}
	dst = dst[:e.dim]
	for i := range dst {
		dst[i] = e.base + float64(e.t)
	}
	return dst
}

func (e *stampEnv) Step(int) float64        { e.t++; return 1 }
func (e *stampEnv) Done() bool              { return e.t >= e.horizon }
func (e *stampEnv) Truncated() bool         { return e.truncate && e.Done() }
func (e *stampEnv) StateDim() int           { return e.dim }
func (e *stampEnv) NumActions() int         { return 1 }
func (e *stampEnv) FeasibleActions() []bool { return []bool{true} }

// stampAgent reports the stamp it was shown: as the value estimate and,
// negated, as the log-probability.
type stampAgent struct{}

func (stampAgent) SelectAction(state []float64) (int, float64) { return 0, -state[0] }
func (stampAgent) GreedyAction([]float64, []bool) int          { return 0 }
func (stampAgent) Estimator() ValueEstimator                   { return stampValues{} }
func (stampAgent) Update(*Buffer) UpdateStats                  { return UpdateStats{} }

type stampValues struct{}

func (stampValues) Values(dst []float64, states *tensorMatrix) {
	for i := range states.Rows {
		dst[i] = states.Row(i)[0]
	}
}

// requireStamps checks that buf's transitions [lo, hi) record, in order,
// the observations base, base+1, ... in every feature.
func requireStamps(t *testing.T, buf *Buffer, lo, hi int, base float64, dim int) {
	t.Helper()
	for i := lo; i < hi; i++ {
		s := buf.Steps()[i]
		want := base + float64(i-lo)
		state := buf.State(i, nil)
		if len(state) != dim {
			t.Fatalf("step %d: state has %d features, want %d", i, len(state), dim)
		}
		for j, x := range state {
			if x != want {
				t.Fatalf("step %d feature %d: stored %v, want the observation taken at that step, %v", i, j, x, want)
			}
		}
		if s.Value != want || s.LogProb != -want {
			t.Fatalf("step %d: agent saw %v/%v, want %v", i, s.Value, -s.LogProb, want)
		}
	}
}

// TestCollectEpisodeStoresEachObservation pins the buffer-owned state
// storage against an environment that reuses the observation scratch: every
// stored State is the observation of its own step — across chunk boundaries,
// at a terminal, at a truncation (whose post-cut Observe also reuses the
// scratch), for a second episode appended behind the first, and after Reset,
// when the next episode is written over the same memory.
func TestCollectEpisodeStoresEachObservation(t *testing.T) {
	const dim = 3
	const long = 2*stateChunkRows + 88 // ends mid-chunk, two boundaries crossed
	var buf Buffer

	CollectEpisode(&stampEnv{dim: dim, horizon: long}, stampAgent{}, &buf)
	if buf.Len() != long {
		t.Fatalf("collected %d steps, want %d", buf.Len(), long)
	}
	requireStamps(t, &buf, 0, long, 0, dim)
	if last := buf.Steps()[long-1]; !last.Done || last.Truncated {
		t.Fatalf("terminal episode must end Done and not Truncated: %+v", last)
	}

	// A truncated episode appended behind it: the first one's rows stay put.
	CollectEpisode(&stampEnv{dim: dim, horizon: 40, base: 1000, truncate: true}, stampAgent{}, &buf)
	requireStamps(t, &buf, 0, long, 0, dim)
	requireStamps(t, &buf, long, buf.Len(), 1000, dim)
	if last := buf.Steps()[buf.Len()-1]; !last.Truncated || last.Bootstrap != 1040 {
		t.Fatalf("cut must bootstrap with the value of the post-cut state 1040: %+v", last)
	}

	firstRow := &buf.row(0)[0]
	chunks := len(buf.chunks)
	buf.Reset()
	CollectEpisode(&stampEnv{dim: dim, horizon: long + 40, base: 5000}, stampAgent{}, &buf)
	requireStamps(t, &buf, 0, buf.Len(), 5000, dim)
	if &buf.row(0)[0] != firstRow || len(buf.chunks) != chunks {
		t.Fatalf("Reset must rewind the storage for reuse: %d chunks before, %d after", chunks, len(buf.chunks))
	}
}

// TestCollectEpisodeZeroAllocOnWarmBuffer extends the zero-allocation
// rollout contract from the inference path to the collector: once a Buffer
// has held an episode, collecting the next one into it allocates nothing —
// with the states valued on the caller and on the value lane.
func TestCollectEpisodeZeroAllocOnWarmBuffer(t *testing.T) {
	for _, lanes := range []bool{false, true} {
		t.Run(fmt.Sprintf("lanes=%v", lanes), func(t *testing.T) {
			forceLanes(t, lanes)
			env := NewSyntheticEnv(benchStateDim, benchActions, 3*stateChunkRows/2, 1)
			agent := benchAgent(2)
			var buf Buffer
			collect := func() {
				buf.Reset()
				env.Reset()
				CollectEpisode(env, agent, &buf)
			}
			collect()
			if allocs := testing.AllocsPerRun(5, collect); allocs != 0 {
				t.Fatalf("collecting a %d-step episode into a warm buffer allocates %.1f objects, want 0", buf.Len(), allocs)
			}
		})
	}
}

// shiftEnv is a SyntheticEnv that ends on a terminal instead of a cut when
// terminal is set, and that moves agent's α at every step: an episode's
// values are the agent's as CollectEpisode found it, so none may see the
// move. With yield set every step yields, so that on one P a running value
// lane values each block it is handed before the rollout stores another
// state; without it, the lane runs only when the rollout waits for it.
type shiftEnv struct {
	*SyntheticEnv
	terminal, yield bool
	agent           *PPO
}

func (e *shiftEnv) Step(action int) float64 {
	e.agent.Alpha = 0.5*e.agent.Alpha + 0.25
	if e.yield {
		runtime.Gosched()
	}
	return e.SyntheticEnv.Step(action)
}

func (e *shiftEnv) Truncated() bool { return !e.terminal && e.SyntheticEnv.Truncated() }

// TestChunkValuesMatchPerState pins the chunked valuation of CollectEpisode:
// every Value and Bootstrap carries the bits of one-state Infer calls on a
// frozen copy of the agent's critics and α — for a plain agent, a dual one
// at α ≠ ½ and a pinned one; for episodes of 1, 63, 64, 65 and 200 steps
// appended to one buffer (so most start mid-chunk), ending on a cut or a
// terminal, collected into fresh storage and then again over a Reset
// buffer's stale rows; with the lane forced off, and forced on at one P —
// valuing each block as soon as it is handed one, before the rollout writes
// anything further, or only when the rollout waits for it, after later Adds
// — and at two.
func TestChunkValuesMatchPerState(t *testing.T) {
	const stateDim, actions = 24, 5
	lengths := []int{1, 63, 64, 65, 200}
	for _, mode := range []struct {
		lanes bool
		procs int
		yield bool
	}{{false, 1, true}, {true, 1, true}, {true, 1, false}, {true, 2, true}} {
		for _, kind := range []string{"plain", "dual", "pinned"} {
			t.Run(fmt.Sprintf("lanes=%v/procs=%d/yield=%v/%s", mode.lanes, mode.procs, mode.yield, kind), func(t *testing.T) {
				forceLanes(t, mode.lanes)
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(mode.procs))
				cfg := DefaultConfig(stateDim, actions)
				rng := rand.New(rand.NewSource(21))
				agent := NewPPO(cfg, rng)
				if kind != "plain" {
					agent = NewDualCriticPPO(cfg, rng)
					agent.Alpha = 0.3
				}
				if kind == "pinned" {
					agent.FixedAlpha = 0.8
				}
				var buf Buffer
				for pass := range 2 {
					buf.Reset()
					for i, n := range lengths {
						if pass == 1 {
							n = lengths[len(lengths)-1-i]
						}
						if kind == "pinned" {
							agent.RefreshAlpha(&buf) // α = FixedAlpha once buf holds a step
						}
						env := &shiftEnv{NewSyntheticEnv(stateDim, actions, n, int64(100*pass+i)), i%2 == 1, mode.yield, agent}
						frozen := frozenValues(agent)
						first := buf.Len()
						CollectEpisode(env, agent, &buf)
						episode := buf.Steps()[first:]
						if len(episode) != n {
							t.Fatalf("pass %d: collected %d steps, want %d", pass, len(episode), n)
						}
						for j, s := range episode {
							requireSameBits(t, fmt.Sprintf("pass %d, %d-step episode, step %d value", pass, n, j), s.Value, frozen(buf.State(first+j, nil)))
						}
						last := episode[n-1]
						if last.Truncated == env.terminal {
							t.Fatalf("%d-step episode: Truncated=%v on a terminal=%v env", n, last.Truncated, env.terminal)
						}
						if last.Truncated {
							requireSameBits(t, fmt.Sprintf("pass %d, %d-step episode bootstrap", pass, n), last.Bootstrap, frozen(env.Observe(nil)))
						}
					}
				}
			})
		}
	}
}

// frozenValues copies agent's critics and α and returns the per-state
// estimate of the copy: one Infer per network on a one-row matrix.
func frozenValues(agent *PPO) func(state []float64) float64 {
	frozen := func(m *nn.MLP) *nn.MLP {
		c := nn.NewMLP(rand.New(rand.NewSource(0)), "frozen", agent.Cfg.criticSizes(), nn.ActTanh, 1.0)
		if err := nn.CopyParams(c, m); err != nil {
			panic(err)
		}
		return c
	}
	critic, alpha := frozen(agent.Critic), agent.Alpha
	var public *nn.MLP
	if agent.PublicCritic != nil {
		public = frozen(agent.PublicCritic)
	}
	return func(state []float64) float64 {
		x := tensorRowVector(state)
		v := critic.Infer(nil, x).Data[0]
		if public == nil {
			return v
		}
		vp := public.Infer(nil, x).Data[0]
		return alpha*v + (1-alpha)*vp
	}
}

func requireSameBits(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: %v (%#x), want the per-state %v (%#x)", what, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}
