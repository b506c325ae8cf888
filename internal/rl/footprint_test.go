package rl

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
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

// holdLaneTapes runs one epoch of each lane of a over buf outside optimize,
// so nothing resets the tapes after it: the actor and critic tapes are left
// holding the working sets of buf's last minibatch.
func holdLaneTapes(a *PPO, buf *Buffer) {
	st, cfg := &a.upd, &a.Cfg
	st.adv, st.targets = buf.GAEInto(gamma, lambda, st.adv, st.targets)
	st.ensure(buf.Len(), cfg.MiniBatch)
	st.tiedColumns(buf, cfg.StateDim)
	st.stage(buf, min(buf.Len(), cfg.MiniBatch))
	for i := range st.idx {
		st.idx[i] = i
	}
	a.actorEpoch(buf)
	a.criticEpoch(buf)
	st.unstage()
}

// footprintRun is the scenario TestUpdateParksNoTapeBuffers and
// TestUpdateKeepsNoScratch share: two dual-critic agents of one shape and a
// buffer of full minibatches and a partial one, collected by the first.
// firstUpdate runs the first agent's Update — on the lanes path while four
// other agents hold, on both tapes, a minibatch's working sets, two of full
// size and two of the buffer's tail size (see TestUpdateParksNoTapeBuffers)
// — and then lets the holders go.
type footprintRun struct {
	cfg           Config
	first, second *PPO
	buf           Buffer
}

func newFootprintRun(t *testing.T) *footprintRun {
	t.Helper()
	const stateDim, actions = 24, 5
	r := &footprintRun{cfg: DefaultConfig(stateDim, actions)}
	r.first = NewDualCriticPPO(r.cfg, rand.New(rand.NewSource(1)))
	r.second = NewDualCriticPPO(r.cfg, rand.New(rand.NewSource(2)))
	env := NewSyntheticEnv(stateDim, actions, 150, 3)
	env.Reset()
	CollectEpisode(env, r.first, &r.buf)
	if tail := r.buf.Len() % r.cfg.MiniBatch; tail == 0 || r.buf.Len() < r.cfg.MiniBatch {
		t.Fatalf("buffer of %d transitions: want full minibatches and a partial one", r.buf.Len())
	}
	return r
}

func (r *footprintRun) firstUpdate(lanes bool) {
	var holders []*PPO
	if lanes {
		tail := r.buf.Len() % r.cfg.MiniBatch
		var full, last Buffer
		for i, s := range r.buf.Steps() {
			switch {
			case i < r.cfg.MiniBatch:
				full.Add(r.buf.State(i, nil), s)
			case i >= r.buf.Len()-tail:
				last.Add(r.buf.State(i, nil), s)
			}
		}
		for i, b := range []*Buffer{&full, &full, &last, &last} {
			h := NewDualCriticPPO(r.cfg, rand.New(rand.NewSource(int64(10+i))))
			holdLaneTapes(h, b)
			holders = append(holders, h)
		}
	}
	r.first.Update(&r.buf)
	for _, h := range holders {
		h.upd.actorTape.Reset()
		h.upd.criticTape.Reset()
	}
}

// laneName names a lane setting in subtest names.
func laneName(lanes bool) string {
	if lanes {
		return "lanes"
	}
	return "sequential"
}

// TestUpdateParksNoTapeBuffers pins that Update hands its tapes' matrices back
// to the pool before it returns: both tapes are empty afterwards, so an agent
// idle between updates holds none, and a second agent of the same shape —
// the next client a swarm worker trains — runs its first Update entirely on
// what the pool already holds, with no pool miss. On both update paths.
//
// How many matrices the lanes hold at once depends on how they interleave,
// which the scheduler decides (preemption can split either lane's epoch
// anywhere, even on one P). At any moment each lane holds at most one
// minibatch's tape and its current op's temporaries. So on the lanes path
// the first Update runs while four other agents hold, on both tapes, a
// minibatch's working sets, two of full size and two of the buffer's tail
// size: the pool then lends the second Update each lane's sets twice over on
// top of all the first Update borrowed at its peak, enough for both lanes at
// their peaks at once, and the assertion holds under any interleaving and at
// any GOMAXPROCS.
func TestUpdateParksNoTapeBuffers(t *testing.T) {
	for _, lanes := range []bool{false, true} {
		t.Run(laneName(lanes), func(t *testing.T) {
			forceLanes(t, lanes)
			r := newFootprintRun(t)
			r.firstUpdate(lanes)
			if n, m := r.first.upd.actorTape.Len(), r.first.upd.criticTape.Len(); n != 0 || m != 0 {
				t.Fatalf("after Update the actor tape holds %d nodes and the critic tape %d, want 0", n, m)
			}
			if misses := poolMisses(func() { r.second.Update(&r.buf) }); misses != 0 {
				t.Fatalf("a second agent's first Update missed the pool %d times, want 0", misses)
			}
		})
	}
}

// TestUpdateKeepsNoScratch pins DESIGN §9 contract 24: between updates an
// agent holds its parameters, its Adam moments and its buffer, and nothing
// only the update uses. After Update no parameter of the actor, φ or ψ holds
// gradient storage (borrowed from the tensor pool for the call) and nothing
// in the update scratch is a matrix as wide as a state (the lanes' state
// blocks are borrowed from the pool for the call too). A second agent of
// the same shape then runs its first Update with no miss in the pool: not
// for a gradient, a state block nor a tape matrix. On both update paths.
func TestUpdateKeepsNoScratch(t *testing.T) {
	for _, lanes := range []bool{false, true} {
		t.Run(laneName(lanes), func(t *testing.T) {
			forceLanes(t, lanes)
			r := newFootprintRun(t)
			r.firstUpdate(lanes)
			requireNoUpdateScratch(t, r.first)
			if misses := poolMisses(func() { r.second.Update(&r.buf) }); misses != 0 {
				t.Fatalf("a second agent's first Update missed the pool %d times, want 0", misses)
			}
			requireNoUpdateScratch(t, r.second)
		})
	}
}

// requireNoUpdateScratch fails unless a holds no gradient storage and no
// matrix of StateDim columns in its update scratch.
func requireNoUpdateScratch(t *testing.T, a *PPO) {
	t.Helper()
	for _, net := range []*nn.MLP{a.Actor, a.Critic, a.PublicCritic} {
		for _, p := range net.Params() {
			if p.Grad != nil {
				t.Fatalf("after Update %s holds a %dx%d gradient", p.Name, p.Grad.Rows, p.Grad.Cols)
			}
		}
	}
	st := reflect.ValueOf(&a.upd).Elem()
	for i := 0; i < st.NumField(); i++ {
		f, name := st.Field(i), st.Type().Field(i).Name
		if f.Type() == reflect.TypeOf((*tensor.Matrix)(nil)) && !f.IsNil() {
			if cols := f.Elem().FieldByName("Cols").Int(); int(cols) == a.Cfg.StateDim {
				t.Fatalf("after Update the scratch's %s is a matrix of %d columns, a state's width", name, cols)
			}
		}
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
		{"local", local, CriticMSE(a.Critic, &memo.buf, gamma)},
		{"public", public, CriticMSE(a.PublicCritic, &memo.buf, gamma)},
		{"local, whole buffer", local, wholeBufferMSE(a.Critic, &memo.buf, gamma)},
		{"public, whole buffer", public, wholeBufferMSE(a.PublicCritic, &memo.buf, gamma)},
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
	states := tensor.New(buf.Len(), buf.width())
	for i := range buf.Len() {
		buf.State(i, states.Row(i))
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
