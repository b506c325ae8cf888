package autograd

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// composedSurrogate builds the historical fifteen-node PPO actor-head graph
// that ClippedSurrogateLoss fuses, exactly as internal/rl composed it.
func composedSurrogate(tp *Tape, logits *Value, actions []int, oldLogp, adv *tensor.Matrix, clip, entCoef float64) (loss, objective, entropy, actLogp, ratio *Value) {
	logp := LogSoftmaxRows(logits)
	actLogp = PickCols(logp, actions)
	ratio = Exp(Sub(actLogp, tp.Const(oldLogp)))
	advC := tp.Const(adv)
	surr1 := Mul(ratio, advC)
	surr2 := Mul(Clamp(ratio, 1-clip, 1+clip), advC)
	objective = Mean(Minimum(surr1, surr2))
	probs := SoftmaxRows(logits)
	entropy = Neg(Mean(SumRows(Mul(probs, logp))))
	loss = Sub(Neg(objective), Scale(entropy, entCoef))
	return loss, objective, entropy, actLogp, ratio
}

func bitsEqual(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func requireSameBits(t *testing.T, label string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length mismatch %d vs %d", label, len(want), len(got))
	}
	for i := range want {
		if !bitsEqual(want[i], got[i]) {
			t.Fatalf("%s: element %d differs: composed %v (%#x) vs fused %v (%#x)",
				label, i, want[i], math.Float64bits(want[i]), got[i], math.Float64bits(got[i]))
		}
	}
}

// TestClippedSurrogateLossMatchesComposedOps pins the fused actor head to the
// op composition it replaces: loss, stats outputs, and the gradient reaching
// the logits must be bitwise identical, across ratio regimes that exercise
// both clamp branches, Minimum ties (zero advantage), and entCoef == 0.
func TestClippedSurrogateLossMatchesComposedOps(t *testing.T) {
	cases := []struct {
		name          string
		n, a          int
		clip, entCoef float64
		spread        float64 // scale of oldLogp perturbation: larger → more clipping
		seed          int64
	}{
		{"small", 5, 3, 0.2, 0.01, 0.1, 1},
		{"wide-actions", 7, 9, 0.2, 0.01, 0.5, 2},
		{"minibatch", 64, 9, 0.2, 0.01, 1.5, 3},
		{"no-entropy", 16, 4, 0.2, 0, 0.5, 4},
		{"tight-clip", 32, 6, 0.05, 0.02, 1.0, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			logits := tensor.RandNormal(rng, tc.n, tc.a, 0, 2)
			actions := make([]int, tc.n)
			oldLogp := tensor.New(tc.n, 1)
			adv := tensor.New(tc.n, 1)
			// oldLogp near the current log-prob so ratios cluster around 1,
			// with spread pushing some outside [1-clip, 1+clip]. A few zero
			// advantages force surr1 == surr2 ties in Minimum.
			lsm := logits.Clone()
			logits.LogSoftmaxRowsInto(lsm)
			for i := 0; i < tc.n; i++ {
				actions[i] = rng.Intn(tc.a)
				oldLogp.Data[i] = lsm.Data[i*tc.a+actions[i]] + tc.spread*rng.NormFloat64()
				if i%5 == 0 {
					adv.Data[i] = 0
				} else {
					adv.Data[i] = rng.NormFloat64()
				}
			}

			ct := new(Tape)
			cx := ct.Var(logits)
			loss, obj, ent, actLogp, ratio := composedSurrogate(ct, cx, actions, oldLogp, adv, tc.clip, tc.entCoef)
			loss.Backward()

			ft := new(Tape)
			fx := ft.Var(logits)
			res := ClippedSurrogateLoss(fx, actions, oldLogp, adv, tc.clip, tc.entCoef)
			res.Loss.Backward()

			if !bitsEqual(loss.Item(), res.Loss.Item()) {
				t.Fatalf("loss differs: composed %v vs fused %v", loss.Item(), res.Loss.Item())
			}
			if !bitsEqual(obj.Item(), res.Objective) {
				t.Fatalf("objective differs: composed %v vs fused %v", obj.Item(), res.Objective)
			}
			if !bitsEqual(ent.Item(), res.Entropy) {
				t.Fatalf("entropy differs: composed %v vs fused %v", ent.Item(), res.Entropy)
			}
			requireSameBits(t, "actLogp", actLogp.Data.Data, res.ActLogp)
			requireSameBits(t, "ratio", ratio.Data.Data, res.Ratio)
			requireSameBits(t, "logits grad", cx.Grad.Data, fx.Grad.Data)
		})
	}
}

// TestClippedSurrogateLossTapeReuse runs the fused op twice on one pooled
// tape with a Reset in between; recycled scratch must not change any output.
func TestClippedSurrogateLossTapeReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n, a = 12, 5
	logits := tensor.RandNormal(rng, n, a, 0, 1)
	actions := make([]int, n)
	oldLogp := tensor.RandNormal(rng, n, 1, -1.5, 0.3)
	adv := tensor.RandNormal(rng, n, 1, 0, 1)
	for i := range actions {
		actions[i] = rng.Intn(a)
	}

	tape := NewPooledTape(new(tensor.Pool))
	run := func() (float64, *tensor.Matrix) {
		tape.Reset()
		x := tape.Var(logits)
		res := ClippedSurrogateLoss(x, actions, oldLogp, adv, 0.2, 0.01)
		res.Loss.Backward()
		return res.Loss.Item(), x.Grad.Clone()
	}
	l1, g1 := run()
	l2, g2 := run()
	if !bitsEqual(l1, l2) {
		t.Fatalf("loss changed across tape reuse: %v vs %v", l1, l2)
	}
	requireSameBits(t, "grad across reuse", g1.Data, g2.Data)
}

func TestClippedSurrogateLossActionOutOfRangePanics(t *testing.T) {
	tape := new(Tape)
	logits := tape.Var(tensor.New(2, 3))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range action")
		}
	}()
	ClippedSurrogateLoss(logits, []int{0, 3}, tensor.New(2, 1), tensor.New(2, 1), 0.2, 0.01)
}
