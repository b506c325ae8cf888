package autograd

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// buildLoss constructs a representative PPO-shaped graph (dense layers,
// softmax machinery, clip/min surrogate, reductions) on the given tape and
// runs Backward, returning the loss value. All parameter gradients
// accumulate into the supplied buffers.
func buildLoss(tape *Tape, x, w1, b1, w2, b2 *tensor.Matrix, g1, gb1, g2, gb2 *tensor.Matrix, idx []int) float64 {
	xc := tape.Const(x)
	w1v := tape.Param(w1, g1)
	b1v := tape.Param(b1, gb1)
	w2v := tape.Param(w2, g2)
	b2v := tape.Param(b2, gb2)

	h := Tanh(Linear(xc, w1v, b1v))
	logits := Linear(h, w2v, b2v)
	logp := LogSoftmaxRows(logits)
	picked := PickCols(logp, idx)
	ratio := Exp(Sub(picked, Scale(picked, 0.5))) // synthetic old-logp
	clipped := Clamp(ratio, 0.8, 1.2)
	surr := Minimum(ratio, clipped)
	probs := SoftmaxRows(logits)
	ent := Neg(Mean(SumRows(Mul(probs, logp))))
	loss := Sub(Neg(Mean(surr)), Scale(ent, 0.01))
	loss.Backward()
	return loss.Item()
}

// TestPooledTapeResetMatchesFreshTapes asserts the core pooled-tape
// guarantee: rebuilding a graph on a Reset pooled tape produces bitwise
// identical losses and gradients to building it on a fresh unpooled tape
// every time.
func TestPooledTapeResetMatchesFreshTapes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const batch, in, hid, out = 7, 11, 16, 5
	x := tensor.RandNormal(rng, batch, in, 0, 1)
	w1 := tensor.RandNormal(rng, in, hid, 0, 0.5)
	b1 := tensor.RandNormal(rng, 1, hid, 0, 0.1)
	w2 := tensor.RandNormal(rng, hid, out, 0, 0.5)
	b2 := tensor.RandNormal(rng, 1, out, 0, 0.1)
	idx := make([]int, batch)
	for i := range idx {
		idx[i] = rng.Intn(out)
	}

	grads := func() (a, b, c, d *tensor.Matrix) {
		return tensor.New(in, hid), tensor.New(1, hid), tensor.New(hid, out), tensor.New(1, out)
	}

	pool := tensor.NewPool()
	pooled := NewPooledTape(pool)
	for round := 0; round < 4; round++ {
		fg1, fgb1, fg2, fgb2 := grads()
		fresh := NewTape()
		wantLoss := buildLoss(fresh, x, w1, b1, w2, b2, fg1, fgb1, fg2, fgb2, idx)

		pg1, pgb1, pg2, pgb2 := grads()
		pooled.Reset()
		gotLoss := buildLoss(pooled, x, w1, b1, w2, b2, pg1, pgb1, pg2, pgb2, idx)

		if math.Float64bits(wantLoss) != math.Float64bits(gotLoss) {
			t.Fatalf("round %d: loss %v (pooled) != %v (fresh)", round, gotLoss, wantLoss)
		}
		for name, pair := range map[string][2]*tensor.Matrix{
			"w1": {pg1, fg1}, "b1": {pgb1, fgb1}, "w2": {pg2, fg2}, "b2": {pgb2, fgb2},
		} {
			got, want := pair[0], pair[1]
			for i := range want.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
					t.Fatalf("round %d: grad %s[%d] = %v, want %v", round, name, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
	if gets, hits := pool.Stats(); hits == 0 {
		t.Fatalf("pooled tape never recycled a matrix (gets=%d hits=%d)", gets, hits)
	}
}

// TestPooledTapeSteadyStateDoesNotGrow checks that Reset actually recycles
// node structs: the spare list bounds total node allocation across rebuilds.
func TestPooledTapeSteadyStateDoesNotGrow(t *testing.T) {
	pool := tensor.NewPool()
	tape := NewPooledTape(pool)
	x := tensor.Full(3, 4, 1)
	w := tensor.Full(4, 2, 0.5)
	bias := tensor.New(1, 2)
	g := tensor.New(4, 2)

	var lens []int
	for i := 0; i < 5; i++ {
		tape.Reset()
		g.Zero()
		loss := Mean(Square(Linear(tape.Const(x), tape.Param(w, g), tape.Const(bias))))
		loss.Backward()
		lens = append(lens, tape.Len())
	}
	for i := 1; i < len(lens); i++ {
		if lens[i] != lens[0] {
			t.Fatalf("tape length drifted across resets: %v", lens)
		}
	}
	gets, hits := pool.Stats()
	if hits == 0 || gets == 0 {
		t.Fatalf("expected pool traffic, got gets=%d hits=%d", gets, hits)
	}
}

// TestParamGradSurvivesReset ensures Reset never recycles caller-owned
// Param gradient buffers.
func TestParamGradSurvivesReset(t *testing.T) {
	pool := tensor.NewPool()
	tape := NewPooledTape(pool)
	w := tensor.Full(2, 2, 1)
	g := tensor.New(2, 2)
	loss := Mean(Square(tape.Param(w, g)))
	loss.Backward()
	want := append([]float64(nil), g.Data...)
	tape.Reset()
	// Drain the pool into fresh buffers; if g had been recycled, one of
	// these would alias it and the next write would corrupt want.
	for i := 0; i < 8; i++ {
		pool.Get(2, 2).Fill(99)
	}
	for i, v := range g.Data {
		if v != want[i] {
			t.Fatalf("param grad corrupted after Reset: %v", g.Data)
		}
	}
}
