package rl

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cloudsim"
	"repro/internal/nn"
	"repro/internal/workload"
)

func TestBufferReturns(t *testing.T) {
	var b Buffer
	b.Add(Transition{Reward: 1})
	b.Add(Transition{Reward: 2})
	b.Add(Transition{Reward: 3, Done: true})
	g := b.Returns(0.5)
	// G2 = 3; G1 = 2 + 0.5*3 = 3.5; G0 = 1 + 0.5*3.5 = 2.75
	want := []float64{2.75, 3.5, 3}
	for i := range want {
		if math.Abs(g[i]-want[i]) > 1e-12 {
			t.Fatalf("returns %v, want %v", g, want)
		}
	}
}

func TestBufferReturnsResetAtEpisodeBoundary(t *testing.T) {
	var b Buffer
	b.Add(Transition{Reward: 5, Done: true})
	b.Add(Transition{Reward: 7, Done: true})
	g := b.Returns(0.9)
	if g[0] != 5 || g[1] != 7 {
		t.Fatalf("boundary not respected: %v", g)
	}
}

func TestGAEMatchesHandComputation(t *testing.T) {
	var b Buffer
	b.Add(Transition{Reward: 1, Value: 0.5})
	b.Add(Transition{Reward: 2, Value: 1.0, Done: true})
	gamma, lambda := 0.9, 0.8
	adv, targets := b.GAE(gamma, lambda)
	// t=1 terminal: delta1 = 2 + 0 - 1 = 1; gae1 = 1.
	// t=0: delta0 = 1 + 0.9*1.0 - 0.5 = 1.4; gae0 = 1.4 + 0.9*0.8*1 = 2.12.
	if math.Abs(adv[1]-1) > 1e-12 || math.Abs(adv[0]-2.12) > 1e-12 {
		t.Fatalf("adv %v", adv)
	}
	if math.Abs(targets[0]-(2.12+0.5)) > 1e-12 || math.Abs(targets[1]-2.0) > 1e-12 {
		t.Fatalf("targets %v", targets)
	}
}

func TestGAEWithLambdaOneEqualsMonteCarlo(t *testing.T) {
	var b Buffer
	vals := []float64{0.3, -0.2, 0.7}
	rewards := []float64{1, -1, 2}
	for i := range rewards {
		b.Add(Transition{Reward: rewards[i], Value: vals[i], Done: i == 2})
	}
	gamma := 0.95
	adv, _ := b.GAE(gamma, 1.0)
	g := b.Returns(gamma)
	for i := range adv {
		if math.Abs(adv[i]-(g[i]-vals[i])) > 1e-9 {
			t.Fatalf("GAE(λ=1) != MC advantage at %d: %v vs %v", i, adv[i], g[i]-vals[i])
		}
	}
}

func TestGAETruncatedTailUsesBootstrap(t *testing.T) {
	var b Buffer
	b.Add(Transition{Reward: 1, Value: 0.5})
	b.Add(Transition{Reward: 2, Value: 1.0, Done: true, Truncated: true, Bootstrap: 3.0})
	gamma, lambda := 0.9, 0.8
	adv, targets := b.GAE(gamma, lambda)
	// t=1 truncated: delta1 = 2 + 0.9*3.0 - 1 = 3.7; gae1 = 3.7.
	// t=0: delta0 = 1 + 0.9*1.0 - 0.5 = 1.4; gae0 = 1.4 + 0.72*3.7 = 4.064.
	if math.Abs(adv[1]-3.7) > 1e-12 || math.Abs(adv[0]-4.064) > 1e-12 {
		t.Fatalf("adv %v", adv)
	}
	if math.Abs(targets[1]-4.7) > 1e-12 || math.Abs(targets[0]-(4.064+0.5)) > 1e-12 {
		t.Fatalf("targets %v", targets)
	}
	// Returns bootstrap the same way: G1 = 2 + 0.9*3 = 4.7; G0 = 1 + 0.9*4.7.
	g := b.Returns(gamma)
	if math.Abs(g[1]-4.7) > 1e-12 || math.Abs(g[0]-5.23) > 1e-12 {
		t.Fatalf("returns %v", g)
	}
}

// mixedBuffer packs three episodes into one batch: a true terminal, a
// truncated cut with a recorded bootstrap, and an open (non-Done) tail
// closed via SetTailValue.
func mixedBuffer() *Buffer {
	var b Buffer
	b.Add(Transition{Reward: 1, Value: 0.2, Done: true})
	b.Add(Transition{Reward: 2, Value: 0.4})
	b.Add(Transition{Reward: 3, Value: 0.6, Done: true, Truncated: true, Bootstrap: 1.0})
	b.Add(Transition{Reward: 4, Value: 0.8})
	b.SetTailValue(2.0)
	return &b
}

func TestGAEMixedBoundariesHandComputed(t *testing.T) {
	b := mixedBuffer()
	adv, targets := b.GAE(0.5, 0.5)
	// i=3 open tail:  delta = 4 + 0.5*2.0 - 0.8 = 4.2;  gae = 4.2.
	// i=2 truncated:  delta = 3 + 0.5*1.0 - 0.6 = 2.9;  gae resets, = 2.9.
	// i=1:            delta = 2 + 0.5*0.6 - 0.4 = 1.9;  gae = 1.9 + 0.25*2.9 = 2.625.
	// i=0 terminal:   delta = 1 + 0 - 0.2 = 0.8;        gae resets, = 0.8.
	wantAdv := []float64{0.8, 2.625, 2.9, 4.2}
	wantTgt := []float64{1.0, 3.025, 3.5, 5.0}
	for i := range wantAdv {
		if math.Abs(adv[i]-wantAdv[i]) > 1e-12 || math.Abs(targets[i]-wantTgt[i]) > 1e-12 {
			t.Fatalf("adv %v targets %v, want %v %v", adv, targets, wantAdv, wantTgt)
		}
	}
	// Returns: G3 = 4 + 0.5*2 = 5; G2 = 3 + 0.5*1 = 3.5; G1 = 2 + 0.5*3.5;
	// G0 = 1 (terminal boundary zeroes the continuation).
	g := b.Returns(0.5)
	wantG := []float64{1, 3.75, 3.5, 5}
	for i := range wantG {
		if math.Abs(g[i]-wantG[i]) > 1e-12 {
			t.Fatalf("returns %v, want %v", g, wantG)
		}
	}
}

func TestGAELambdaZeroIsOneStepTD(t *testing.T) {
	b := mixedBuffer()
	adv, _ := b.GAE(0.5, 0)
	// λ=0 collapses GAE to the raw TD errors (the deltas above).
	want := []float64{0.8, 1.9, 2.9, 4.2}
	for i := range want {
		if math.Abs(adv[i]-want[i]) > 1e-12 {
			t.Fatalf("λ=0 adv %v, want deltas %v", adv, want)
		}
	}
}

func TestGAELambdaOneEqualsBootstrappedMonteCarlo(t *testing.T) {
	// λ=1 telescopes to G_t − V(s_t) within each segment, where G_t uses the
	// same bootstraps as Returns — including across the truncated boundary
	// and the open tail.
	b := mixedBuffer()
	gamma := 0.95
	adv, _ := b.GAE(gamma, 1.0)
	g := b.Returns(gamma)
	for i, s := range b.Steps() {
		if math.Abs(adv[i]-(g[i]-s.Value)) > 1e-9 {
			t.Fatalf("GAE(λ=1) != bootstrapped MC at %d: %v vs %v", i, adv[i], g[i]-s.Value)
		}
	}
}

func TestCollectEpisodeRecordsTruncation(t *testing.T) {
	// SyntheticEnv always ends on its horizon, so the collector must mark the
	// final transition truncated and attach the critic's bootstrap.
	env := NewSyntheticEnv(6, 4, 5, 42)
	agent := NewPPO(DefaultConfig(6, 4), rand.New(rand.NewSource(43)))
	var buf Buffer
	CollectEpisode(env, agent, &buf)
	steps := buf.Steps()
	if len(steps) != 5 {
		t.Fatalf("got %d transitions, want 5", len(steps))
	}
	last := steps[len(steps)-1]
	if !last.Done || !last.Truncated {
		t.Fatalf("horizon cut must be a truncated terminal: %+v", last)
	}
	if want := agent.Value(env.Observe(nil)); last.Bootstrap != want {
		t.Fatalf("bootstrap %v, want critic value %v of the post-cut state", last.Bootstrap, want)
	}
	for i, s := range steps[:len(steps)-1] {
		if s.Truncated || s.Done {
			t.Fatalf("mid-episode transition %d marked done/truncated", i)
		}
	}
}

func TestNormalizeInPlace(t *testing.T) {
	v := []float64{1, 2, 3, 4}
	NormalizeInPlace(v)
	mean, variance := 0.0, 0.0
	for _, x := range v {
		mean += x
	}
	mean /= 4
	for _, x := range v {
		variance += (x - mean) * (x - mean)
	}
	variance /= 4
	if math.Abs(mean) > 1e-9 || math.Abs(variance-1) > 1e-3 {
		t.Fatalf("normalize gave mean %v var %v", mean, variance)
	}
	// Degenerate cases must not blow up.
	single := []float64{5}
	NormalizeInPlace(single)
	if single[0] != 5 {
		t.Fatal("single element should be untouched")
	}
}

func TestNormalizeInPlaceConstantInputCentersToZero(t *testing.T) {
	// A constant advantage batch carries no preference between actions; the
	// degenerate-variance early-out must still subtract the mean, otherwise
	// the uniform offset passes straight into the surrogate as if it were
	// signal.
	same := []float64{2, 2, 2}
	NormalizeInPlace(same)
	for i, x := range same {
		if x != 0 {
			t.Fatalf("constant input must map to zeros, got %v at index %d", x, i)
		}
	}
	negative := []float64{-7.5, -7.5}
	NormalizeInPlace(negative)
	if negative[0] != 0 || negative[1] != 0 {
		t.Fatalf("negative constant input must map to zeros: %v", negative)
	}
}

func TestBufferReset(t *testing.T) {
	var b Buffer
	b.Add(Transition{})
	b.Reset()
	if b.Len() != 0 {
		t.Fatal("Reset failed")
	}
}

func smallEnv(seed int64, n int) *cloudsim.Env {
	rng := rand.New(rand.NewSource(seed))
	cfg := cloudsim.DefaultConfig([]cloudsim.VMSpec{{CPU: 4, Mem: 16}, {CPU: 8, Mem: 32}})
	tasks := cloudsim.ClampTasks(workload.SampleDataset(workload.Google, rng, n), cfg.VMs)
	return cloudsim.MustNewEnv(cfg, tasks)
}

func TestPPOSelectActionInRange(t *testing.T) {
	env := smallEnv(1, 10)
	agent := NewPPO(DefaultConfig(env.StateDim(), env.NumActions()), rand.New(rand.NewSource(2)))
	state := env.Observe(nil)
	for i := 0; i < 50; i++ {
		a, logp := agent.SelectAction(state)
		if a < 0 || a >= env.NumActions() {
			t.Fatalf("action %d out of range", a)
		}
		if logp > 0 || math.IsNaN(logp) {
			t.Fatalf("bad log-prob %v", logp)
		}
	}
}

func TestPPOUpdateEmptyBufferIsNoop(t *testing.T) {
	agent := NewPPO(DefaultConfig(4, 3), rand.New(rand.NewSource(3)))
	var buf Buffer
	stats := agent.Update(&buf)
	if stats != (UpdateStats{}) {
		t.Fatalf("empty update stats %+v", stats)
	}
}

func TestCollectEpisodeFillsBuffer(t *testing.T) {
	env := smallEnv(4, 15)
	agent := NewPPO(DefaultConfig(env.StateDim(), env.NumActions()), rand.New(rand.NewSource(5)))
	var buf Buffer
	total := CollectEpisode(env, agent, &buf)
	env.Drain()
	m := env.Metrics()
	if buf.Len() == 0 {
		t.Fatal("buffer empty after episode")
	}
	steps := buf.Steps()
	if !steps[len(steps)-1].Done {
		t.Fatal("last transition must be terminal")
	}
	for i, s := range steps[:len(steps)-1] {
		if s.Done {
			t.Fatalf("non-terminal transition %d marked done", i)
		}
	}
	if m.Steps != buf.Len() {
		t.Fatalf("env steps %d != buffer %d", m.Steps, buf.Len())
	}
	if math.IsNaN(total) {
		t.Fatal("NaN total reward")
	}
	// States must be snapshots, not aliases.
	if len(steps) > 1 && &steps[0].State[0] == &steps[1].State[0] {
		t.Fatal("states alias each other")
	}
}

func TestPPOImprovesOnSmallWorkload(t *testing.T) {
	// Train on a small fixed workload; total reward over the last episodes
	// must exceed the first episodes. This is the end-to-end learning check.
	env := smallEnv(6, 25)
	rng := rand.New(rand.NewSource(7))
	cfg := DefaultConfig(env.StateDim(), env.NumActions())
	cfg.ActorLR = 1e-3
	cfg.CriticLR = 1e-3
	agent := NewPPO(cfg, rng)
	taskRng := rand.New(rand.NewSource(8))
	tasks := cloudsim.ClampTasks(workload.SampleDataset(workload.Google, taskRng, 25), env.Config().VMs)

	episodes := 40
	rewards := make([]float64, episodes)
	for ep := 0; ep < episodes; ep++ {
		env.Reset(tasks)
		var buf Buffer
		r := CollectEpisode(env, agent, &buf)
		agent.Update(&buf)
		rewards[ep] = r
	}
	early := mean(rewards[:8])
	late := mean(rewards[episodes-8:])
	if late <= early {
		t.Fatalf("PPO did not improve: early %v late %v", early, late)
	}
}

func mean(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// TestSharedInitAcrossKinds pins the one constructor's draw order (actor, φ,
// then ψ): a plain and a dual-critic agent built from the same seed and
// config start from bit-equal actors and φ — what core.BuildClients gives the
// compared algorithms, and what any paired PPO-vs-PFRL-DM statistic rests on.
func TestSharedInitAcrossKinds(t *testing.T) {
	cfg := DefaultConfig(6, 3)
	plain := NewPPO(cfg, rand.New(rand.NewSource(21)))
	dual := NewDualCriticPPO(cfg, rand.New(rand.NewSource(21)))
	if plain.PublicCritic != nil || dual.PublicCritic == nil {
		t.Fatal("NewPPO must build no public critic and NewDualCriticPPO one")
	}
	requireParamsEqual(t, "actor", plain.Actor, dual.Actor)
	requireParamsEqual(t, "φ", plain.Critic, dual.Critic)
	if slices.Equal(nn.FlattenParams(dual.Critic), nn.FlattenParams(dual.PublicCritic)) {
		t.Fatal("ψ must be drawn after φ, not copied from it")
	}
}

func TestDualCriticValueBlending(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cfg := DefaultConfig(6, 3)
	d := NewDualCriticPPO(cfg, rng)
	state := make([]float64, 6)
	for i := range state {
		state[i] = rng.NormFloat64()
	}
	vl := d.Critic.Predict(rowOf(state)).Data[0]
	vp := d.PublicCritic.Predict(rowOf(state)).Data[0]
	d.Alpha = 0.3
	want := 0.3*vl + 0.7*vp
	if got := d.Value(state); math.Abs(got-want) > 1e-12 {
		t.Fatalf("blended value %v, want %v", got, want)
	}
	d.Alpha = 1
	if got := d.Value(state); math.Abs(got-vl) > 1e-12 {
		t.Fatal("alpha=1 should be pure local critic")
	}
}

func rowOf(v []float64) *tensorMatrix { return tensorRowVector(v) }

func TestRefreshAlphaPrefersBetterCritic(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	cfg := DefaultConfig(4, 2)
	cfg.Gamma = 0.9
	d := NewDualCriticPPO(cfg, rng)
	// Build a buffer whose returns are all ~0 and force the public critic
	// to output huge values: its loss explodes, so α → 1 (prefer local).
	var buf Buffer
	for i := 0; i < 10; i++ {
		buf.Add(Transition{State: []float64{0.1, 0.2, 0.3, 0.4}, Reward: 0, Done: i == 9})
	}
	for _, p := range d.PublicCritic.Params() {
		p.Data.Fill(3)
	}
	d.RefreshAlpha(&buf)
	// With mean-normalized losses the softmax tops out at 1/(1+e^-2)≈0.88
	// when the other critic is arbitrarily worse.
	if d.Alpha < 0.8 {
		t.Fatalf("alpha %v should strongly prefer the local critic", d.Alpha)
	}
	if d.LastPublicLoss <= d.LastLocalLoss {
		t.Fatal("loss probes inconsistent")
	}
	// And symmetric critics give α = 0.5.
	if err := nnCopy(d.PublicCritic, d.Critic); err != nil {
		t.Fatal(err)
	}
	d.RefreshAlpha(&buf)
	if math.Abs(d.Alpha-0.5) > 1e-9 {
		t.Fatalf("identical critics should give α=0.5, got %v", d.Alpha)
	}
}

func TestRefreshAlphaEmptyBufferNoop(t *testing.T) {
	d := NewDualCriticPPO(DefaultConfig(4, 2), rand.New(rand.NewSource(11)))
	d.Alpha = 0.77
	var buf Buffer
	d.RefreshAlpha(&buf)
	if d.Alpha != 0.77 {
		t.Fatal("empty buffer must not change alpha")
	}
}

func TestPublicCriticRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := NewDualCriticPPO(DefaultConfig(5, 3), rng)
	b := NewDualCriticPPO(DefaultConfig(5, 3), rng)
	flat := nn.FlattenParams(a.PublicCritic)
	if err := b.LoadPublicCritic(flat, nil); err != nil {
		t.Fatal(err)
	}
	state := []float64{0.1, -0.2, 0.3, 0, 0.5}
	va := a.PublicCritic.Predict(rowOf(state)).Data[0]
	vb := b.PublicCritic.Predict(rowOf(state)).Data[0]
	if math.Abs(va-vb) > 1e-12 {
		t.Fatal("public critic transfer mismatch")
	}
	if err := b.LoadPublicCritic(flat[:5], nil); err == nil {
		t.Fatal("expected length error")
	}
}

func TestDualCriticUpdateRefreshesAlpha(t *testing.T) {
	env := smallEnv(13, 12)
	rng := rand.New(rand.NewSource(14))
	d := NewDualCriticPPO(DefaultConfig(env.StateDim(), env.NumActions()), rng)
	var buf Buffer
	CollectEpisode(env, d, &buf)
	d.Alpha = -1 // sentinel
	d.Update(&buf)
	if d.Alpha < 0 || d.Alpha > 1 {
		t.Fatalf("Update should refresh alpha into [0,1], got %v", d.Alpha)
	}
}

func TestDualCriticImprovesOnSmallWorkload(t *testing.T) {
	env := smallEnv(15, 25)
	rng := rand.New(rand.NewSource(16))
	cfg := DefaultConfig(env.StateDim(), env.NumActions())
	cfg.ActorLR = 1e-3
	cfg.CriticLR = 1e-3
	d := NewDualCriticPPO(cfg, rng)
	taskRng := rand.New(rand.NewSource(17))
	tasks := cloudsim.ClampTasks(workload.SampleDataset(workload.Google, taskRng, 25), env.Config().VMs)
	episodes := 40
	rewards := make([]float64, episodes)
	for ep := 0; ep < episodes; ep++ {
		env.Reset(tasks)
		var buf Buffer
		r := CollectEpisode(env, d, &buf)
		d.Update(&buf)
		rewards[ep] = r
	}
	if late, early := mean(rewards[episodes-8:]), mean(rewards[:8]); late <= early {
		t.Fatalf("dual-critic PPO did not improve: early %v late %v", early, late)
	}
}

// unmasked is agent's greedy choice with the feasibility mask dropped: the
// nil mask allows every action.
func unmasked(agent Agent) func([]float64, []bool) int {
	return func(state []float64, _ []bool) int { return agent.GreedyAction(state, nil) }
}

func TestEvaluateEpisodeDeterministic(t *testing.T) {
	agent := NewPPO(DefaultConfig(smallEnv(18, 10).StateDim(), smallEnv(18, 10).NumActions()), rand.New(rand.NewSource(19)))
	e1, e2 := smallEnv(18, 10), smallEnv(18, 10)
	r1 := EvaluateEpisodeMasked(e1, unmasked(agent))
	r2 := EvaluateEpisodeMasked(e2, unmasked(agent))
	e1.Drain()
	e2.Drain()
	if r1 != r2 || e1.Metrics() != e2.Metrics() {
		t.Fatal("greedy evaluation should be deterministic")
	}
}

func TestCriticMSEDropsWhenCriticFits(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	critic := nn.NewMLP(rng, "c", []int{3, 16, 1}, nn.ActTanh, 1.0)
	var buf Buffer
	for i := 0; i < 32; i++ {
		s := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		buf.Add(Transition{State: s, Reward: s[0], Done: true}) // return == s[0]
	}
	before := CriticMSE(critic, &buf, 0.99)
	opt := nn.NewAdam(critic, 1e-2)
	for it := 0; it < 200; it++ {
		opt.ZeroGrad()
		trainCriticStep(critic, &buf)
		opt.Step()
	}
	after := CriticMSE(critic, &buf, 0.99)
	if after >= before {
		t.Fatalf("critic MSE did not drop: %v -> %v", before, after)
	}
}

func TestEvaluateEpisodeMaskedNeverInvalid(t *testing.T) {
	// With the feasibility guard an untrained agent completes the workload
	// and never pays an invalid-placement or lazy-wait penalty worse than
	// the environment's forced waits.
	env := smallEnv(30, 20)
	agent := NewPPO(DefaultConfig(env.StateDim(), env.NumActions()), rand.New(rand.NewSource(31)))
	EvaluateEpisodeMasked(env, agent.GreedyAction)
	env.Drain()
	m := env.Metrics()
	if m.Completed != m.Total {
		t.Fatalf("masked evaluation should complete all tasks: %d/%d", m.Completed, m.Total)
	}
}

func TestMaskedBeatsUnmaskedForUntrainedAgent(t *testing.T) {
	// The guard can cost reward (lazy-wait penalties instead of cheap
	// invalid-placement penalties) but must deliver better scheduling:
	// lower response time and full completion.
	agent := NewPPO(DefaultConfig(smallEnv(32, 20).StateDim(), smallEnv(32, 20).NumActions()), rand.New(rand.NewSource(33)))
	envM, envU := smallEnv(32, 20), smallEnv(32, 20)
	EvaluateEpisodeMasked(envM, agent.GreedyAction)
	EvaluateEpisodeMasked(envU, unmasked(agent))
	envM.Drain()
	envU.Drain()
	mMasked, mUnmasked := envM.Metrics(), envU.Metrics()
	if mMasked.Completed != mMasked.Total {
		t.Fatalf("masked evaluation incomplete: %d/%d", mMasked.Completed, mMasked.Total)
	}
	if mUnmasked.Completed == mUnmasked.Total && mMasked.AvgResponse > mUnmasked.AvgResponse {
		t.Fatalf("masked response %v should beat unmasked %v", mMasked.AvgResponse, mUnmasked.AvgResponse)
	}
}
