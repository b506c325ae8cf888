package rl

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// poolMisses returns how many DefaultPool Gets fn made that no recycled
// buffer served.
func poolMisses(fn func()) int64 {
	gets0, hits0 := tensor.DefaultPool().Stats()
	fn()
	gets1, hits1 := tensor.DefaultPool().Stats()
	return (gets1 - gets0) - (hits1 - hits0)
}

// TestUpdateParksNoTapeBuffers pins that Update hands its tapes' matrices back
// to the pool before it returns: both tapes are empty afterwards, so an agent
// idle between updates holds none, and a second agent of the same shape —
// the next client a swarm worker trains — runs its first Update entirely on
// what the first returned, with no pool miss. On both update paths; the lanes
// run on one P, where they take turns in the same order every time — on two,
// the second agent's lanes may overlap more than the first's did and need
// more matrices at once than the pool has ever lent.
func TestUpdateParksNoTapeBuffers(t *testing.T) {
	for _, lanes := range []bool{false, true} {
		name := "sequential"
		if lanes {
			name = "lanes"
		}
		t.Run(name, func(t *testing.T) {
			forceLanes(t, lanes)
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			const stateDim, actions = 24, 5
			cfg := DefaultConfig(stateDim, actions)
			first := NewDualCriticPPO(cfg, rand.New(rand.NewSource(1)))
			second := NewDualCriticPPO(cfg, rand.New(rand.NewSource(2)))
			var buf Buffer
			env := NewSyntheticEnv(stateDim, actions, 150, 3)
			env.Reset()
			CollectEpisode(env, first, &buf)
			if buf.Len()%cfg.MiniBatch == 0 || buf.Len() < cfg.MiniBatch {
				t.Fatalf("buffer of %d transitions: want full minibatches and a partial one", buf.Len())
			}

			first.Update(&buf)
			if n, m := first.upd.actorTape.Len(), first.upd.criticTape.Len(); n != 0 || m != 0 {
				t.Fatalf("after Update the actor tape holds %d nodes and the critic tape %d, want 0", n, m)
			}
			if misses := poolMisses(func() { second.Update(&buf) }); misses != 0 {
				t.Fatalf("a second agent's first Update missed the pool %d times, want 0", misses)
			}
		})
	}
}

// memoRun is one side of TestCriticLossMemoMatchesFresh: an agent with its
// own environment and buffer. The memo-free side forgets its memo before
// every call that reads it, so it computes every loss afresh.
type memoRun struct {
	agent    *PPO
	env      *SyntheticEnv
	buf      Buffer
	memoFree bool
}

func (r *memoRun) forget() {
	if r.memoFree {
		r.agent.localLoss, r.agent.publicLoss = lossMemo{}, lossMemo{}
	}
}

func (r *memoRun) collect() {
	r.env.Reset()
	CollectEpisode(r.env, r.agent, &r.buf)
}

func (r *memoRun) refresh() {
	r.forget()
	r.agent.RefreshAlpha(&r.buf)
}

func (r *memoRun) install(t *testing.T, payload []float64, wantErr bool) {
	t.Helper()
	r.forget()
	if err := r.agent.LoadPublicCritic(payload, &r.buf); (err != nil) != wantErr {
		t.Fatalf("install of %d values: error %v, want error %v", len(payload), err, wantErr)
	}
}

// TestCriticLossMemoMatchesFresh drives seeded random sequences of everything
// that changes a critic or the buffer — collection, updates, installs (a
// duplicate one and a refused one among them), a checkpoint round trip, a
// buffer reset, a pinned α — on an agent and on a memo-free twin in lockstep.
// After every step α and the recorded losses must agree bit for bit, and the
// losses CriticLosses serves (the Fig. 9 probe's) must equal CriticMSE's
// fresh computation and the whole-buffer evaluation the blocked one replaced
// (the buffer grows past several 64-row blocks). Keying the memo on an optimizer's step count fails here:
// two installs with no update between leave ψ's at 0.
func TestCriticLossMemoMatchesFresh(t *testing.T) {
	const stateDim, actions = 12, 4
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig(stateDim, actions)
		cfg.MiniBatch = 16
		cfg.UpdateEpochs = 2
		runs := make([]*memoRun, 2)
		for i := range runs {
			runs[i] = &memoRun{
				agent:    NewDualCriticPPO(cfg, rand.New(rand.NewSource(seed+100))),
				env:      NewSyntheticEnv(stateDim, actions, 40, seed),
				memoFree: i == 1,
			}
			runs[i].collect()
		}

		// Installs draw from a few distinct payloads, so consecutive
		// installs with no update between them change ψ.
		payloads := make([][]float64, 3)
		for i := range payloads {
			payloads[i] = nn.FlattenParams(nn.NewMLP(rng, "psi", cfg.criticSizes(), nn.ActTanh, 1.0))
		}
		for step := 0; step < 60; step++ {
			op := rng.Intn(8)
			payload := payloads[rng.Intn(len(payloads))]
			for _, r := range runs {
				switch op {
				case 0: // collect another episode into the buffer
					r.collect()
				case 1:
					r.forget()
					r.agent.Update(&r.buf)
				case 2:
					r.install(t, payload, false)
				case 3: // the Duplicate fault: one payload installed twice
					r.install(t, payload, false)
					r.install(t, payload, false)
				case 4: // a corrupt-length payload, refused
					r.install(t, payload[:5], true)
				case 5: // SaveAgent → LoadAgent
					var ck bytes.Buffer
					if err := SaveAgent(&ck, r.agent); err != nil {
						t.Fatal(err)
					}
					loaded, err := LoadAgent(&ck, r.agent.rng)
					if err != nil {
						t.Fatal(err)
					}
					r.agent = loaded
					r.refresh()
				case 6: // Buffer.Reset, then a fresh episode
					r.buf.Reset()
					r.refresh() // empty: leaves α and the losses alone
					r.collect()
					r.refresh()
				case 7: // pin α, or unpin it
					if r.agent.pinned() {
						r.agent.FixedAlpha = -1
					} else {
						r.agent.FixedAlpha = 0.25
					}
					r.refresh()
				}
			}
			checkMemoFresh(t, runs[0], runs[1], seed, step, op)
		}
	}
}

// checkMemoFresh compares the memoized run against the memo-free one, and the
// memoized run's CriticLosses against CriticMSE's fresh computation.
func checkMemoFresh(t *testing.T, memo, fresh *memoRun, seed int64, step, op int) {
	t.Helper()
	a, f := memo.agent, fresh.agent
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"alpha", a.Alpha, f.Alpha},
		{"LastLocalLoss", a.LastLocalLoss, f.LastLocalLoss},
		{"LastPublicLoss", a.LastPublicLoss, f.LastPublicLoss},
	} {
		if !sameBits(c.got, c.want) {
			t.Fatalf("seed %d step %d (op %d): %s %v, memo-free %v", seed, step, op, c.name, c.got, c.want)
		}
	}
	local, public := a.CriticLosses(&memo.buf)
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"local", local, CriticMSE(a.Critic, &memo.buf, a.Cfg.Gamma)},
		{"public", public, CriticMSE(a.PublicCritic, &memo.buf, a.Cfg.Gamma)},
		{"local, whole buffer", local, wholeBufferMSE(a.Critic, &memo.buf, a.Cfg.Gamma)},
		{"public, whole buffer", public, wholeBufferMSE(a.PublicCritic, &memo.buf, a.Cfg.Gamma)},
	} {
		if !sameBits(c.got, c.want) {
			t.Fatalf("seed %d step %d (op %d): %s loss %v, fresh %v", seed, step, op, c.name, c.got, c.want)
		}
	}
}

// wholeBufferMSE is a frozen copy of the critic loss before it was evaluated
// in blocks: every state of buf staged into one matrix, one Infer over it.
// It is the reference the blocked evaluation must match bit for bit.
func wholeBufferMSE(critic *nn.MLP, buf *Buffer, gamma float64) float64 {
	steps := buf.Steps()
	states := tensor.New(len(steps), len(steps[0].State))
	for i, s := range steps {
		copy(states.Row(i), s.State)
	}
	returns := buf.Returns(gamma)
	v := critic.Infer(nil, states)
	mse := 0.0
	for i := range returns {
		d := v.Data[i] - returns[i]
		mse += d * d
	}
	return mse / float64(len(returns))
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
