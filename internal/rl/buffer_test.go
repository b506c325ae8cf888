package rl

import (
	"testing"
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
func (stampAgent) Value(state []float64) float64               { return state[0] }
func (stampAgent) Update(*Buffer) UpdateStats                  { return UpdateStats{} }

// requireStamps checks that steps record, in order, the observations
// base, base+1, ... in every feature.
func requireStamps(t *testing.T, steps []Transition, base float64, dim int) {
	t.Helper()
	for i, s := range steps {
		want := base + float64(i)
		if len(s.State) != dim {
			t.Fatalf("step %d: state has %d features, want %d", i, len(s.State), dim)
		}
		for j, x := range s.State {
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
	requireStamps(t, buf.Steps(), 0, dim)
	if last := buf.Steps()[long-1]; !last.Done || last.Truncated {
		t.Fatalf("terminal episode must end Done and not Truncated: %+v", last)
	}

	// A truncated episode appended behind it: the first one's rows stay put.
	CollectEpisode(&stampEnv{dim: dim, horizon: 40, base: 1000, truncate: true}, stampAgent{}, &buf)
	requireStamps(t, buf.Steps()[:long], 0, dim)
	requireStamps(t, buf.Steps()[long:], 1000, dim)
	if last := buf.Steps()[buf.Len()-1]; !last.Truncated || last.Bootstrap != 1040 {
		t.Fatalf("cut must bootstrap with the value of the post-cut state 1040: %+v", last)
	}

	firstRow := &buf.Steps()[0].State[0]
	chunks := len(buf.chunks)
	buf.Reset()
	CollectEpisode(&stampEnv{dim: dim, horizon: long + 40, base: 5000}, stampAgent{}, &buf)
	requireStamps(t, buf.Steps(), 5000, dim)
	if &buf.Steps()[0].State[0] != firstRow || len(buf.chunks) != chunks {
		t.Fatalf("Reset must rewind the storage for reuse: %d chunks before, %d after", chunks, len(buf.chunks))
	}
}

// TestCollectEpisodeZeroAllocOnWarmBuffer extends the zero-allocation
// rollout contract from the inference path to the collector: once a Buffer
// has held an episode, collecting the next one into it allocates nothing.
func TestCollectEpisodeZeroAllocOnWarmBuffer(t *testing.T) {
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
}
