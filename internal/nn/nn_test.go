package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/autograd"
	"repro/internal/tensor"
)

func TestLinearForwardShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear(rng, "fc", 5, 3, 1.0)
	tape := autograd.NewTape()
	x := tape.Const(tensor.RandNormal(rng, 4, 5, 0, 1))
	y := l.Forward(tape, x)
	if y.Data.Rows != 4 || y.Data.Cols != 3 {
		t.Fatalf("Linear output %dx%d, want 4x3", y.Data.Rows, y.Data.Cols)
	}
}

func TestLinearBiasApplied(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewLinear(rng, "fc", 2, 2, 1.0)
	l.W.Data.Zero()
	l.B.Data.Data[0] = 1.5
	l.B.Data.Data[1] = -2.5
	tape := autograd.NewTape()
	y := l.Forward(tape, tape.Const(tensor.New(1, 2)))
	if y.Data.Data[0] != 1.5 || y.Data.Data[1] != -2.5 {
		t.Fatalf("bias not applied: %v", y.Data.Data)
	}
}

// TestLinearAccumulatesIntoDirtyGrad: a second Backward on the same
// parameters with no optimizer step in between adds onto the first through a
// temporary per weight and bias, leaving G1 + G2 — the bits the composed ops
// left — and a ZeroGrads or an Adam.Step in between re-arms the direct path,
// seen as the tape drawing no temporaries for them.
func TestLinearAccumulatesIntoDirtyGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewMLP(rng, "net", []int{60, 64, 6}, ActTanh, 0.01)
	xa := tensor.RandNormal(rng, 17, 60, 0, 1)
	xb := tensor.RandNormal(rng, 17, 60, 0, 1)
	pool := tensor.NewPool()
	tape := autograd.NewPooledTape(pool)
	// backward runs one graph on x and returns how many matrices it drew.
	backward := func(x *tensor.Matrix) int64 {
		tape.Reset()
		before, _ := pool.Stats()
		autograd.Mean(autograd.Square(m.Forward(tape, tape.Const(x)))).Backward()
		after, _ := pool.Stats()
		return after - before
	}
	grads := func() []*tensor.Matrix {
		var gs []*tensor.Matrix
		for _, p := range m.Params() {
			gs = append(gs, p.Grad.Clone())
		}
		return gs
	}
	requireGrads := func(label string, want []*tensor.Matrix) {
		t.Helper()
		for i, p := range m.Params() {
			for j, w := range want[i].Data {
				if math.Float64bits(w) != math.Float64bits(p.Grad.Data[j]) {
					t.Fatalf("%s: %s[%d] = %v, want %v", label, p.Name, j, p.Grad.Data[j], w)
				}
			}
		}
	}

	direct := backward(xa)
	ga := grads()
	ZeroGrads(m)
	backward(xb)
	gb := grads()
	ZeroGrads(m)

	backward(xa)
	if got, want := backward(xb), direct+int64(len(m.Params())); got != want {
		t.Fatalf("backward onto dirty grads drew %d matrices, want %d (one temporary per parameter)", got, want)
	}
	sum := make([]*tensor.Matrix, len(ga))
	for i := range ga {
		sum[i] = ga[i].Clone().AddInPlace(gb[i])
	}
	requireGrads("two backwards", sum)

	ZeroGrads(m)
	if got := backward(xa); got != direct {
		t.Fatalf("after ZeroGrads backward drew %d matrices, want the direct path's %d", got, direct)
	}
	requireGrads("after ZeroGrads", ga)
	NewAdam(m, 1e-3).Step()
	if got := backward(xa); got != direct {
		t.Fatalf("after Adam.Step backward drew %d matrices, want the direct path's %d", got, direct)
	}
}

func TestMLPShapesAndSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewMLP(rng, "net", []int{10, 64, 64, 5}, ActTanh, 0.01)
	if len(m.Layers) != 3 {
		t.Fatalf("want 3 layers, got %d", len(m.Layers))
	}
	out := m.Predict(tensor.RandNormal(rng, 7, 10, 0, 1))
	if out.Rows != 7 || out.Cols != 5 {
		t.Fatalf("MLP output %dx%d", out.Rows, out.Cols)
	}
	want := 10*64 + 64 + 64*64 + 64 + 64*5 + 5
	if NumParams(m) != want {
		t.Fatalf("NumParams = %d, want %d", NumParams(m), want)
	}
	sizes := m.Sizes()
	sizes[0] = 999
	if m.Sizes()[0] == 999 {
		t.Fatal("Sizes must return a copy")
	}
}

func TestMLPTooFewSizesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMLP(rand.New(rand.NewSource(1)), "x", []int{3}, ActTanh, 1)
}

func TestMLPTrainsOnRegression(t *testing.T) {
	// Fit y = sin(3x) on [-1,1]; loss must drop by >5x. This is the
	// end-to-end check that forward, backward and Adam cooperate.
	rng := rand.New(rand.NewSource(4))
	n := 64
	x := tensor.New(n, 1)
	y := tensor.New(n, 1)
	for i := 0; i < n; i++ {
		xv := -1 + 2*float64(i)/float64(n-1)
		x.Data[i] = xv
		y.Data[i] = math.Sin(3 * xv)
	}
	m := NewMLP(rng, "reg", []int{1, 32, 1}, ActTanh, 1.0)
	opt := NewAdam(m, 1e-2)
	loss := func() float64 {
		tape := autograd.NewTape()
		pred := m.Forward(tape, tape.Const(x))
		l := autograd.Mean(autograd.Square(autograd.Sub(pred, tape.Const(y))))
		return l.Item()
	}
	initial := loss()
	for it := 0; it < 300; it++ {
		opt.ZeroGrad()
		tape := autograd.NewTape()
		pred := m.Forward(tape, tape.Const(x))
		l := autograd.Mean(autograd.Square(autograd.Sub(pred, tape.Const(y))))
		l.Backward()
		opt.Step()
	}
	final := loss()
	if final > initial/5 {
		t.Fatalf("training did not converge: initial %v final %v", initial, final)
	}
}

func TestAdamResetClearsState(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := NewMLP(rng, "r", []int{2, 2}, ActTanh, 1.0)
	opt := NewAdam(m, 1e-3)
	opt.ZeroGrad()
	m.Params()[0].Grad.Fill(1)
	opt.Step()
	opt.Reset()
	if opt.step != 0 {
		t.Fatal("Reset should zero step")
	}
	for _, mm := range opt.m {
		if mm.Norm2() != 0 {
			t.Fatal("Reset should zero first moments")
		}
	}
}

func TestFlattenLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := NewMLP(rng, "a", []int{3, 4, 2}, ActTanh, 1.0)
	b := NewMLP(rng, "b", []int{3, 4, 2}, ActTanh, 1.0)
	flat := FlattenParams(a)
	if len(flat) != NumParams(a) {
		t.Fatalf("flat len %d != %d", len(flat), NumParams(a))
	}
	if err := LoadFlatParams(b, flat); err != nil {
		t.Fatal(err)
	}
	in := tensor.RandNormal(rng, 2, 3, 0, 1)
	if !a.Predict(in).ApproxEqual(b.Predict(in), 1e-12) {
		t.Fatal("models disagree after LoadFlatParams")
	}
}

func TestLoadFlatParamsLengthError(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := NewMLP(rng, "m", []int{2, 2}, ActTanh, 1.0)
	if err := LoadFlatParams(m, make([]float64, 3)); err == nil {
		t.Fatal("expected length error")
	}
}

func TestCopyParams(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := NewMLP(rng, "a", []int{3, 5, 2}, ActTanh, 1.0)
	b := NewMLP(rng, "b", []int{3, 5, 2}, ActTanh, 1.0)
	if err := CopyParams(b, a); err != nil {
		t.Fatal(err)
	}
	in := tensor.RandNormal(rng, 4, 3, 0, 1)
	if !a.Predict(in).ApproxEqual(b.Predict(in), 1e-12) {
		t.Fatal("CopyParams did not synchronize outputs")
	}
	c := NewMLP(rng, "c", []int{3, 4, 2}, ActTanh, 1.0)
	if err := CopyParams(c, a); err == nil {
		t.Fatal("expected shape mismatch error")
	}
}

func TestCloneIsDeep(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := NewMLP(rng, "a", []int{2, 3, 2}, ActTanh, 1.0)
	c := a.Clone("c")
	in := tensor.RandNormal(rng, 1, 2, 0, 1)
	if !a.Predict(in).ApproxEqual(c.Predict(in), 1e-12) {
		t.Fatal("clone output differs")
	}
	c.Params()[0].Data.Fill(99)
	if a.Params()[0].Data.Data[0] == 99 {
		t.Fatal("clone shares storage with original")
	}
}

func TestClipGradNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := NewMLP(rng, "m", []int{2, 2}, ActTanh, 1.0)
	for _, p := range m.Params() {
		p.Grad.Fill(3)
	}
	pre := ClipGradNorm(m, 1.0)
	if pre <= 1.0 {
		t.Fatalf("expected pre-clip norm > 1, got %v", pre)
	}
	post := ClipGradNorm(m, math.Inf(1))
	if math.Abs(post-1.0) > 1e-9 {
		t.Fatalf("post-clip norm %v, want 1", post)
	}
	// maxNorm <= 0 disables clipping.
	for _, p := range m.Params() {
		p.Grad.Fill(3)
	}
	ClipGradNorm(m, 0)
	if m.Params()[0].Grad.Data[0] != 3 {
		t.Fatal("maxNorm=0 should not clip")
	}
}

func TestCategoricalBasics(t *testing.T) {
	c := NewCategorical([]float64{0, 0, math.Log(2)}, nil)
	p := []float64{c.Prob(0), c.Prob(1), c.Prob(2)}
	if math.Abs(p[0]+p[1]+p[2]-1) > 1e-12 {
		t.Fatal("probs must sum to 1")
	}
	if math.Abs(p[2]-2*p[0]) > 1e-12 {
		t.Fatalf("logit ratio not respected: %v", p)
	}
	if c.Argmax() != 2 {
		t.Fatal("argmax wrong")
	}
	if math.Abs(c.LogProb(2)-math.Log(p[2])) > 1e-12 {
		t.Fatal("LogProb inconsistent with Prob")
	}
	if math.Abs(c.Prob(1)-p[1]) > 1e-12 {
		t.Fatal("Prob accessor wrong")
	}
}

func TestCategoricalMasking(t *testing.T) {
	c := NewCategorical([]float64{5, 1, 1}, []bool{false, true, true})
	if c.Prob(0) != 0 {
		t.Fatal("masked action must have probability 0")
	}
	if !math.IsInf(c.LogProb(0), -1) {
		t.Fatal("masked action must have -inf log-prob")
	}
	if math.Abs(c.Prob(1)-0.5) > 1e-12 {
		t.Fatalf("remaining mass not renormalized: %v", c.Prob(1))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		if c.Sample(rng) == 0 {
			t.Fatal("sampled a masked action")
		}
	}
}

func TestCategoricalAllMaskedFallsBackUniform(t *testing.T) {
	c := NewCategorical([]float64{1, 2, 3, 4}, []bool{false, false, false, false})
	for i := 0; i < 4; i++ {
		if math.Abs(c.Prob(i)-0.25) > 1e-12 {
			t.Fatalf("expected uniform fallback, got %v for action %d", c.Prob(i), i)
		}
	}
}

func TestCategoricalSampleFrequencies(t *testing.T) {
	c := NewCategorical([]float64{math.Log(0.7), math.Log(0.2), math.Log(0.1)}, nil)
	rng := rand.New(rand.NewSource(2))
	counts := make([]int, 3)
	const n = 50000
	for i := 0; i < n; i++ {
		counts[c.Sample(rng)]++
	}
	want := []float64{0.7, 0.2, 0.1}
	for i, w := range want {
		got := float64(counts[i]) / n
		if math.Abs(got-w) > 0.02 {
			t.Fatalf("action %d frequency %v, want ~%v", i, got, w)
		}
	}
}

func TestCategoricalEntropy(t *testing.T) {
	uniform := NewCategorical([]float64{1, 1, 1, 1}, nil)
	if math.Abs(uniform.Entropy()-math.Log(4)) > 1e-12 {
		t.Fatalf("uniform entropy %v, want ln4", uniform.Entropy())
	}
	peaked := NewCategorical([]float64{100, 0, 0, 0}, nil)
	if peaked.Entropy() > 1e-6 {
		t.Fatalf("peaked entropy %v, want ~0", peaked.Entropy())
	}
}

func TestPropCategoricalNormalized(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(8)
		logits := make([]float64, n)
		mask := make([]bool, n)
		anyAllowed := false
		for i := range logits {
			logits[i] = r.NormFloat64() * 5
			mask[i] = r.Float64() < 0.7
			anyAllowed = anyAllowed || mask[i]
		}
		if !anyAllowed {
			mask[0] = true
		}
		c := NewCategorical(logits, mask)
		sum := 0.0
		for i := 0; i < n; i++ {
			p := c.Prob(i)
			if p < 0 || p > 1 {
				return false
			}
			if !mask[i] && p != 0 {
				return false
			}
			sum += p
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZeroGradsClearsAll(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m := NewMLP(rng, "m", []int{2, 3, 2}, ActTanh, 1.0)
	for _, p := range m.Params() {
		p.Grad.Fill(1)
	}
	ZeroGrads(m)
	for _, p := range m.Params() {
		if p.Grad.Norm2() != 0 {
			t.Fatal("ZeroGrads left residue")
		}
	}
}
