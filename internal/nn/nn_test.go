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
	tape := new(autograd.Tape)
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
	tape := new(autograd.Tape)
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
	pool := new(tensor.Pool)
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
	out := m.Infer(nil, tensor.RandNormal(rng, 7, 10, 0, 1))
	if out.Rows != 7 || out.Cols != 5 {
		t.Fatalf("MLP output %dx%d", out.Rows, out.Cols)
	}
	want := 10*64 + 64 + 64*64 + 64 + 64*5 + 5
	if NumParams(m) != want {
		t.Fatalf("NumParams = %d, want %d", NumParams(m), want)
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
		tape := new(autograd.Tape)
		pred := m.Forward(tape, tape.Const(x))
		l := autograd.Mean(autograd.Square(autograd.Sub(pred, tape.Const(y))))
		return l.Item()
	}
	initial := loss()
	for it := 0; it < 300; it++ {
		ZeroGrads(m)
		tape := new(autograd.Tape)
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
	ZeroGrads(m)
	m.Params()[0].Gradient().Fill(1)
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
	if !a.Infer(nil, in).ApproxEqual(b.Infer(nil, in), 1e-12) {
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

// TestGenerationCountsEveryWriter pins the counter a memo of a network's
// outputs is keyed on: every nn path that writes parameters advances it, a
// refused write and an optimizer Reset do not, and it never rewinds.
func TestGenerationCountsEveryWriter(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := NewMLP(rng, "m", []int{2, 3, 1}, ActTanh, 1.0)
	src := NewMLP(rng, "src", []int{2, 3, 1}, ActTanh, 1.0)
	opt := NewAdam(m, 1e-3)
	last := Generation(m)
	advanced := func(what string, want bool) {
		t.Helper()
		g := Generation(m)
		if (g > last) != want || g < last {
			t.Fatalf("%s: generation %d -> %d, advance want %v", what, last, g, want)
		}
		last = g
	}
	advanced("construction", false)
	opt.Step()
	advanced("Adam.Step", true)
	opt.Reset()
	advanced("Adam.Reset", false)
	if err := LoadFlatParams(m, FlattenParams(src)); err != nil {
		t.Fatal(err)
	}
	advanced("LoadFlatParams", true)
	if err := LoadFlatParams(m, make([]float64, 3)); err == nil {
		t.Fatal("expected length error")
	}
	advanced("refused LoadFlatParams", false)
	if err := CopyParams(m, src); err != nil {
		t.Fatal(err)
	}
	advanced("CopyParams", true)
	if err := CopyParams(m, NewMLP(rng, "c", []int{2, 4, 1}, ActTanh, 1.0)); err == nil {
		t.Fatal("expected shape mismatch error")
	}
	advanced("refused CopyParams", false)
}

func TestCopyParams(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := NewMLP(rng, "a", []int{3, 5, 2}, ActTanh, 1.0)
	b := NewMLP(rng, "b", []int{3, 5, 2}, ActTanh, 1.0)
	if err := CopyParams(b, a); err != nil {
		t.Fatal(err)
	}
	in := tensor.RandNormal(rng, 4, 3, 0, 1)
	if !a.Infer(nil, in).ApproxEqual(b.Infer(nil, in), 1e-12) {
		t.Fatal("CopyParams did not synchronize outputs")
	}
	c := NewMLP(rng, "c", []int{3, 4, 2}, ActTanh, 1.0)
	if err := CopyParams(c, a); err == nil {
		t.Fatal("expected shape mismatch error")
	}
}

func TestClipGradNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := NewMLP(rng, "m", []int{2, 2}, ActTanh, 1.0)
	for _, p := range m.Params() {
		p.Gradient().Fill(3)
	}
	pre, scale := ClipGradNorm(m, 1.0)
	if pre <= 1.0 {
		t.Fatalf("expected pre-clip norm > 1, got %v", pre)
	}
	if math.Abs(pre*scale-1.0) > 1e-9 {
		t.Fatalf("clipped norm %v·%v = %v, want 1", pre, scale, pre*scale)
	}
	if m.Params()[0].Grad.Data[0] != 3 {
		t.Fatal("ClipGradNorm must leave the gradients to Adam.StepScaled")
	}
	if post, s := ClipGradNorm(m, math.Inf(1)); post != pre || s != 1 {
		t.Fatalf("unbounded clip: norm %v scale %v, want %v and 1", post, s, pre)
	}
	// maxNorm <= 0 disables clipping.
	if _, s := ClipGradNorm(m, 0); s != 1 {
		t.Fatalf("maxNorm=0 should not clip: scale %v", s)
	}
}

// TestClipFoldMatchesTwoPass pins the clip folded into the Adam step
// against the two passes it replaced, a frozen copy of the rescaling
// ClipGradNorm and then Step: 20 steps of an MLP's real gradients, clipped
// and not, on a first layer whose padded inputs tie its rows, leave the
// parameters bit for bit equal. Both SIMD settings.
func TestClipFoldMatchesTwoPass(t *testing.T) {
	twoPassClip := func(m Module, maxNorm float64) {
		total := 0.0
		for _, p := range m.Params() {
			for _, g := range p.Gradient().Data {
				total += g * g
			}
		}
		if norm := math.Sqrt(total); maxNorm > 0 && norm > maxNorm {
			scale := maxNorm / (norm + 1e-12)
			for _, p := range m.Params() {
				p.Grad.ScaleInPlace(scale)
			}
		}
	}
	for _, simd := range []bool{true, false} {
		prev := tensor.SetSIMD(simd)
		build := func() *MLP { return NewMLP(rand.New(rand.NewSource(5)), "c", []int{24, 16, 3}, ActTanh, 1.0) }
		fold, ref := build(), build()
		foldOpt, refOpt := NewAdam(fold, 3e-3), NewAdam(ref, 3e-3)
		rng := rand.New(rand.NewSource(6))
		for it := 0; it < 20; it++ {
			x := tensor.RandNormal(rng, 8, 24, 0, 1)
			for r := 0; r < x.Rows; r++ {
				copy(x.Row(r)[16:], []float64{-1, -1, -1, -1, -1, -1, -1, -1})
			}
			maxNorm := []float64{0.05, 100}[it%2]
			for _, net := range []*MLP{fold, ref} {
				tape := new(autograd.Tape)
				autograd.Mean(autograd.Square(net.Forward(tape, tape.Const(x)))).Backward()
			}
			_, scale := ClipGradNorm(fold, maxNorm)
			foldOpt.StepScaled(scale)
			twoPassClip(ref, maxNorm)
			refOpt.Step()
			for i, p := range fold.Params() {
				for j, v := range p.Data.Data {
					if w := ref.Params()[i].Data.Data[j]; math.Float64bits(v) != math.Float64bits(w) {
						t.Fatalf("simd=%v step %d: %s[%d] = %v folded, %v in two passes", simd, it, p.Name, j, v, w)
					}
				}
			}
		}
		tensor.SetSIMD(prev)
	}
}

func TestCategoricalBasics(t *testing.T) {
	c := categorical([]float64{0, 0, math.Log(2)}, nil)
	p := []float64{c.probs[0], c.probs[1], c.probs[2]}
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
		t.Fatal("LogProb inconsistent with the probabilities")
	}
}

func TestCategoricalMasking(t *testing.T) {
	c := categorical([]float64{5, 1, 1}, []bool{false, true, true})
	if c.probs[0] != 0 {
		t.Fatal("masked action must have probability 0")
	}
	if !math.IsInf(c.LogProb(0), -1) {
		t.Fatal("masked action must have -inf log-prob")
	}
	if math.Abs(c.probs[1]-0.5) > 1e-12 {
		t.Fatalf("remaining mass not renormalized: %v", c.probs[1])
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		if c.Sample(rng) == 0 {
			t.Fatal("sampled a masked action")
		}
	}
}

func TestCategoricalAllMaskedFallsBackUniform(t *testing.T) {
	c := categorical([]float64{1, 2, 3, 4}, []bool{false, false, false, false})
	for i := 0; i < 4; i++ {
		if math.Abs(c.probs[i]-0.25) > 1e-12 {
			t.Fatalf("expected uniform fallback, got %v for action %d", c.probs[i], i)
		}
	}
}

func TestCategoricalSampleFrequencies(t *testing.T) {
	c := categorical([]float64{math.Log(0.7), math.Log(0.2), math.Log(0.1)}, nil)
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
		c := categorical(logits, mask)
		sum := 0.0
		for i := 0; i < n; i++ {
			p := c.probs[i]
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
		p.Gradient().Fill(1)
	}
	ZeroGrads(m)
	for _, p := range m.Params() {
		if p.Grad.Norm2() != 0 {
			t.Fatal("ZeroGrads left residue")
		}
	}
}

// TestCheckSizes pins the guard every deserializer runs before building a
// declared architecture: too few layers, a width outside [1,
// MaxCheckpointDim] or a parameter count above MaxCheckpointParams is an
// error, and each cap itself is accepted.
func TestCheckSizes(t *testing.T) {
	cases := []struct {
		name   string
		sizes  []int
		params int // -1: refused
	}{
		{"no layers", nil, -1},
		{"one layer", []int{2}, -1},
		{"zero width", []int{3, 0, 2}, -1},
		{"negative width", []int{2, -1}, -1},
		{"width above cap", []int{MaxCheckpointDim + 1, 1}, -1},
		{"width at cap", []int{MaxCheckpointDim, 1}, MaxCheckpointDim + 1},
		{"params above cap", []int{1024, 1024}, -1},
		{"params at cap", []int{1023, 1024}, MaxCheckpointParams},
		{"widest square", []int{MaxCheckpointDim, MaxCheckpointDim}, -1},
		{"small", []int{3, 4, 2}, 4*4 + 5*2},
	}
	for _, tc := range cases {
		got, err := CheckSizes(tc.sizes)
		switch {
		case tc.params < 0 && err == nil:
			t.Errorf("%s: %v accepted with %d params", tc.name, tc.sizes, got)
		case tc.params >= 0 && (err != nil || got != tc.params):
			t.Errorf("%s: %v = %d, %v; want %d params", tc.name, tc.sizes, got, err, tc.params)
		}
	}
}

// TestGradientsBorrowedOnDemand pins what a parameter without gradient
// storage does wherever nn reads a gradient: it reads as all +0. A fresh
// network's ClipGradNorm is 0 and ZeroGrads leaves it without storage;
// Adam.Step on it borrows a zeroed buffer and steps exactly as a twin whose
// gradients were explicitly zeroed; Node borrows for a Backward, after which
// ZeroGrads clears it (the benchmark probes' two paths); ReleaseGrads hands
// the storage back, and the next borrow of the same sizes takes it from the
// store without allocating.
func TestGradientsBorrowedOnDemand(t *testing.T) {
	build := func() *MLP { return NewMLP(rand.New(rand.NewSource(3)), "g", []int{5, 8, 3}, ActTanh, 1.0) }
	m, twin := build(), build()
	for _, p := range m.Params() {
		if p.Grad != nil {
			t.Fatalf("a new parameter %s holds gradient storage", p.Name)
		}
	}
	if n, _ := ClipGradNorm(m, 0.5); n != 0 {
		t.Fatalf("ClipGradNorm of a network without gradients = %v, want 0", n)
	}
	ZeroGrads(m)
	for _, p := range m.Params() {
		if p.Grad != nil {
			t.Fatalf("ClipGradNorm or ZeroGrads borrowed storage for %s", p.Name)
		}
	}
	for _, p := range twin.Params() {
		p.Gradient().Zero()
	}
	opt, twinOpt := NewAdam(m, 1e-2), NewAdam(twin, 1e-2)
	opt.Step()
	twinOpt.Step()
	for i, p := range m.Params() {
		if p.Grad == nil || p.Grad.Norm2() != 0 {
			t.Fatalf("Adam.Step left %s without a cleared gradient", p.Name)
		}
		for j, v := range p.Data.Data {
			if math.Float64bits(v) != math.Float64bits(twin.Params()[i].Data.Data[j]) {
				t.Fatalf("%s[%d] stepped to %v on a borrowed gradient, %v on a zeroed one", p.Name, j, v, twin.Params()[i].Data.Data[j])
			}
		}
	}
	ReleaseGrads(m)
	tape := new(autograd.Tape)
	autograd.Mean(autograd.Square(m.Forward(tape, tape.Const(tensor.RandNormal(rand.New(rand.NewSource(4)), 4, 5, 0, 1))))).Backward()
	ZeroGrads(m)
	for _, p := range m.Params() {
		if p.Grad == nil || p.Grad.Norm2() != 0 {
			t.Fatalf("after Backward and ZeroGrads %s holds no cleared gradient", p.Name)
		}
	}
	ReleaseGrads(m)
	for _, p := range m.Params() {
		if p.Grad != nil {
			t.Fatalf("ReleaseGrads left %s holding storage", p.Name)
		}
	}
	borrows0, misses0 := GradStats()
	opt.Step()
	if borrows, misses := GradStats(); borrows-borrows0 != int64(len(m.Params())) || misses != misses0 {
		t.Fatalf("re-borrowing %d gradients: %d borrows, %d misses, want %d and 0", len(m.Params()), borrows-borrows0, misses-misses0, len(m.Params()))
	}
}
