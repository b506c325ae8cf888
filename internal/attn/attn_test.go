package attn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

// syntheticEmbeddings builds K client embeddings that mimic federated
// training from a shared initialization: every vector is base + drift,
// where clients 0 and 1 share a drift direction (same environment) and the
// others drift independently.
func syntheticEmbeddings(rng *rand.Rand, k, dim int, baseScale, driftScale float64) [][]float64 {
	base := make([]float64, dim)
	for i := range base {
		base[i] = baseScale * rng.NormFloat64()
	}
	shared := make([]float64, dim)
	for i := range shared {
		shared[i] = rng.NormFloat64()
	}
	out := make([][]float64, k)
	for c := 0; c < k; c++ {
		e := make([]float64, dim)
		for i := range e {
			drift := rng.NormFloat64()
			if c < 2 {
				// Same-environment pair: aligned drift plus small noise.
				drift = shared[i] + 0.2*rng.NormFloat64()
			}
			e[i] = base[i] + driftScale*drift
		}
		out[c] = e
	}
	return out
}

func assertRowStochastic(t *testing.T, w [][]float64) {
	t.Helper()
	for i, row := range w {
		sum := 0.0
		for _, v := range row {
			if v < 0 || v > 1 {
				t.Fatalf("weight out of [0,1]: w[%d]=%v", i, row)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
}

func TestAttentionWeightsRowStochastic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	emb := syntheticEmbeddings(rng, 4, 200, 1.0, 0.05)
	w := NewAggregator(7).Weights(emb)
	if len(w) != 4 || len(w[0]) != 4 {
		t.Fatalf("shape %dx%d", len(w), len(w[0]))
	}
	assertRowStochastic(t, w)
}

func TestAttentionFocusesOnSimilarClients(t *testing.T) {
	// The Figure-11 property: same-environment clients 0 and 1 must pay
	// each other markedly more attention than the average pair.
	rng := rand.New(rand.NewSource(2))
	emb := syntheticEmbeddings(rng, 4, 400, 1.0, 0.05)
	w := NewAggregator(7).Weights(emb)
	if f := Focus(w, 0, 1); f < 1.5 {
		t.Fatalf("attention focus(0,1)=%v, want > 1.5 (w=%v)", f, w)
	}
	if f := Focus(w, 1, 0); f < 1.5 {
		t.Fatalf("attention focus(1,0)=%v, want > 1.5", f)
	}
	// And an unrelated pair should not be favored.
	if Focus(w, 2, 3) > Focus(w, 0, 1) {
		t.Fatal("unrelated pair outranks the similar pair")
	}
}

func TestCosineFailsToFocusUnderSharedInit(t *testing.T) {
	// The Figure-13 property: with a dominant shared component, cosine
	// weights are near-uniform.
	rng := rand.New(rand.NewSource(3))
	emb := syntheticEmbeddings(rng, 4, 400, 1.0, 0.05)
	w := CosineWeights(emb)
	assertRowStochastic(t, w)
	for i := range w {
		for j := range w[i] {
			if math.Abs(w[i][j]-0.25) > 0.05 {
				t.Fatalf("cosine weights should be near uniform, got w[%d][%d]=%v", i, j, w[i][j])
			}
		}
	}
}

func TestKLFailsToFocusUnderSharedInit(t *testing.T) {
	// The Figure-12 property.
	rng := rand.New(rand.NewSource(4))
	emb := syntheticEmbeddings(rng, 4, 400, 1.0, 0.05)
	w := KLWeights(emb)
	assertRowStochastic(t, w)
	if f := Focus(w, 0, 1); f > 1.3 {
		t.Fatalf("KL weights unexpectedly focus: %v", f)
	}
}

func TestAttentionBeatsBaselinesAtFocusing(t *testing.T) {
	// The cross-figure comparison the paper's §3.3 draws.
	rng := rand.New(rand.NewSource(5))
	emb := syntheticEmbeddings(rng, 4, 400, 1.0, 0.05)
	fa := Focus(NewAggregator(7).Weights(emb), 0, 1)
	fc := Focus(CosineWeights(emb), 0, 1)
	fk := Focus(KLWeights(emb), 0, 1)
	if !(fa > fc && fa > fk) {
		t.Fatalf("attention focus %v should exceed cosine %v and KL %v", fa, fc, fk)
	}
}

func TestAttentionDeterministicForSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	emb := syntheticEmbeddings(rng, 3, 100, 1.0, 0.1)
	w1 := NewAggregator(42).Weights(emb)
	w2 := NewAggregator(42).Weights(emb)
	for i := range w1 {
		for j := range w1[i] {
			if w1[i][j] != w2[i][j] {
				t.Fatal("same seed must give identical weights")
			}
		}
	}
	w3 := NewAggregator(43).Weights(emb)
	same := true
	for i := range w1 {
		for j := range w1[i] {
			if w1[i][j] != w3[i][j] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds should give different weights")
	}
}

func TestAttentionIdenticalEmbeddingsUniform(t *testing.T) {
	// With all-identical embeddings, centering leaves zero drift and the
	// softmax must fall back to uniform rows.
	e := make([]float64, 50)
	for i := range e {
		e[i] = float64(i)
	}
	emb := [][]float64{e, e, e}
	w := NewAggregator(1).Weights(emb)
	assertRowStochastic(t, w)
	for i := range w {
		for j := range w[i] {
			if math.Abs(w[i][j]-1.0/3) > 1e-9 {
				t.Fatalf("identical embeddings should give uniform weights, got %v", w)
			}
		}
	}
}

func TestWeightsPanicOnRaggedInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewAggregator(1).Weights([][]float64{{1, 2}, {1}})
}

func TestWeightsPanicOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewAggregator(1).Weights(nil)
}

func TestKLDivergenceProperties(t *testing.T) {
	p := []float64{0.7, 0.2, 0.1}
	q := []float64{0.1, 0.2, 0.7}
	if klDivergence(p, p) > 1e-9 {
		t.Fatal("KL(p||p) should be ~0")
	}
	if klDivergence(p, q) <= 0 {
		t.Fatal("KL(p||q) should be positive for p != q")
	}
}

func TestSoftmaxVecStable(t *testing.T) {
	out := softmaxVec([]float64{1000, 1000, 1000})
	for _, v := range out {
		if math.Abs(v-1.0/3) > 1e-9 {
			t.Fatalf("softmaxVec unstable: %v", out)
		}
	}
}

func TestFocusEdgeCases(t *testing.T) {
	if Focus([][]float64{{1}}, 0, 0) != 1 {
		t.Fatal("single client focus should be 1")
	}
	uniform := [][]float64{{0.5, 0.5}, {0.5, 0.5}}
	if math.Abs(Focus(uniform, 0, 1)-1) > 1e-9 {
		t.Fatal("uniform matrix focus should be 1")
	}
}

func TestPropAllGeneratorsRowStochastic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(6)
		dim := 10 + rng.Intn(100)
		emb := make([][]float64, k)
		for i := range emb {
			emb[i] = make([]float64, dim)
			for j := range emb[i] {
				emb[i][j] = rng.NormFloat64() * 3
			}
		}
		for _, w := range [][][]float64{
			NewAggregator(seed).Weights(emb),
			CosineWeights(emb),
			KLWeights(emb),
		} {
			for _, row := range w {
				sum := 0.0
				for _, v := range row {
					if v < -1e-12 {
						return false
					}
					sum += v
				}
				if math.Abs(sum-1) > 1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// referenceWeights is Weights as it stood before the head projections were
// cached: every call redraws each head's dim × d_k matrix from its seeded
// source and forms x·P with one MatMulInto. It is the frozen reference the
// cached, panel-by-panel Weights must equal bitwise (DESIGN §9 contract 6).
func referenceWeights(a *Aggregator, embeddings [][]float64) [][]float64 {
	k, dim := checkEmbeddings(embeddings)
	x := referencePrepare(embeddings, a.Center)
	acc := tensor.New(k, k)
	heads := max(a.Heads, 1)
	dk := a.DK
	if dk < 1 {
		dk = 32
	}
	temp := a.Temperature
	if temp <= 0 {
		temp = 1
	}
	p := tensor.New(dim, dk)
	q := tensor.New(k, dk)
	scores := tensor.New(k, k)
	for h := 0; h < heads; h++ {
		rng := rand.New(rand.NewSource(a.Seed*1_000_003 + int64(h)))
		for i := range p.Data {
			p.Data[i] = rng.NormFloat64()
		}
		x.MatMulInto(p, q)
		q.MatMulTransBInto(q, scores)
		scores.ScaleInto(1/(math.Sqrt(float64(dk))*temp), scores)
		scores.SoftmaxRowsInto(scores)
		acc.AddInPlace(scores)
	}
	acc.ScaleInPlace(1 / float64(heads))
	return toRows(acc)
}

// referencePrepare is prepare as it stood before it wrote into Weights'
// pooled transpose: stack the embeddings into a fresh k × dim matrix, center
// each column on SumColsInto·(1/k), L2-normalize each row.
func referencePrepare(embeddings [][]float64, center bool) *tensor.Matrix {
	x := tensor.FromRows(embeddings)
	if center {
		mean := x.SumColsInto(tensor.New(1, x.Cols)).ScaleInPlace(1 / float64(x.Rows))
		for i := 0; i < x.Rows; i++ {
			row := x.Row(i)
			for j := range row {
				row[j] -= mean.Data[j]
			}
		}
	}
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		n := 0.0
		for _, v := range row {
			n += v * v
		}
		n = math.Sqrt(n)
		if n < 1e-12 {
			continue // a zero drift row stays zero (softmax handles it)
		}
		for j := range row {
			row[j] /= n
		}
	}
	return x
}

// zeroPlantedEmbeddings is syntheticEmbeddings with zeros planted where the
// kernels skip them: every fifth column equal across clients (zero after
// centering), scattered zero entries, and, for K ≥ 3, one all-zero client
// (a zero row when centering is off).
func zeroPlantedEmbeddings(rng *rand.Rand, k, dim int) [][]float64 {
	emb := syntheticEmbeddings(rng, k, dim, 1.0, 0.05)
	for j := 0; j < dim; j += 5 {
		for c := 1; c < k; c++ {
			emb[c][j] = emb[0][j]
		}
	}
	for n := 0; n < dim/7; n++ {
		emb[rng.Intn(k)][rng.Intn(dim)] = 0
	}
	if k >= 3 {
		clear(emb[k-1])
	}
	return emb
}

func requireSameWeights(t *testing.T, label string, want, got [][]float64) {
	t.Helper()
	for i := range want {
		for j := range want[i] {
			if math.Float64bits(want[i][j]) != math.Float64bits(got[i][j]) {
				t.Fatalf("%s: w[%d][%d] = %v, reference %v", label, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestWeightsMatchesReference pins contract 6: for any dim on either side of
// the 64-row decode panel (up to the fig15 and table3 critic widths), any K,
// seed and aggregator shape, with zero drifts planted, SIMD on and off,
// Weights returns the frozen reference's bits.
func TestWeightsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, seed := range []int64{1, 7, -3} {
		aggs := []*Aggregator{
			NewAggregator(seed),
			{Heads: 3, DK: 5, Seed: seed, Temperature: 1},
		}
		for _, dim := range []int{1, 63, 64, 65, 3969, 4225, 8833} {
			for _, k := range []int{1, 2, 5, 8} {
				emb := zeroPlantedEmbeddings(rng, k, dim)
				for ai, a := range aggs {
					want := referenceWeights(a, emb)
					for _, simd := range []bool{false, true} {
						prev := tensor.SetSIMD(simd)
						got := a.Weights(emb)
						tensor.SetSIMD(prev)
						requireSameWeights(t, fmt.Sprintf("seed %d dim %d K %d aggregator %d simd=%v", seed, dim, k, ai, simd), want, got)
					}
				}
			}
		}
	}
}

// TestProjectionCodesMatchDraws pins the compact form against the stream it
// records: decoding every head, side list included, gives the values
// NormFloat64 draws from a plain source seeded seed·1 000 003 + h, in order,
// bitwise — so the recording source changes nothing about the stream.
func TestProjectionCodesMatchDraws(t *testing.T) {
	for _, key := range []projKey{{1, 4, 4225, 32}, {7, 3, 65, 5}, {-3, 1, 1, 1}} {
		p := drawProjections(key)
		row := make([]float64, key.dk)
		for h := 0; h < key.heads; h++ {
			rng := rand.New(rand.NewSource(key.seed*1_000_003 + int64(h)))
			for j := 0; j < key.dim; j++ {
				p.decode(h, j, j+1, row)
				for c, got := range row {
					if want := rng.NormFloat64(); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("key %+v head %d [%d,%d] decodes to %v, drawn %v", key, h, j, c, got, want)
					}
				}
			}
		}
		if n := key.heads * key.dim * key.dk; n > 100_000 {
			if len(p.side) == 0 {
				t.Fatalf("key %+v: no side values in %d draws; the side list goes untested", key, n)
			}
			t.Logf("key %+v: %d of %d values (%.2f %%) kept verbatim", key, len(p.side), n, 100*float64(len(p.side))/float64(n))
		}
	}
}

// TestWeightsConcurrentKeys runs Weights from four goroutines that alternate
// two keys, so the process's cached set is replaced while other callers are
// still reading the old one; every result must equal the reference.
func TestWeightsConcurrentKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	type call struct {
		a    *Aggregator
		emb  [][]float64
		want [][]float64
	}
	calls := []call{
		{a: NewAggregator(1), emb: zeroPlantedEmbeddings(rng, 5, 130)},
		{a: NewAggregator(2), emb: zeroPlantedEmbeddings(rng, 5, 777)},
	}
	for i := range calls {
		calls[i].want = referenceWeights(calls[i].a, calls[i].emb)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 20; n++ {
				c := calls[(g+n)%len(calls)]
				got := c.a.Weights(c.emb)
				for i := range c.want {
					for j := range c.want[i] {
						if math.Float64bits(got[i][j]) != math.Float64bits(c.want[i][j]) {
							errs <- fmt.Sprintf("goroutine %d call %d: w[%d][%d] = %v, reference %v", g, n, i, j, got[i][j], c.want[i][j])
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// BenchmarkWeights is one steady-state PFRL-DM aggregation's weight
// computation at the swarm's payload: K = 8 critics of 4225 parameters.
func BenchmarkWeights(b *testing.B) {
	emb := syntheticEmbeddings(rand.New(rand.NewSource(11)), 8, 4225, 1.0, 0.05)
	a := NewAggregator(1)
	a.Weights(emb)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Weights(emb)
	}
}
