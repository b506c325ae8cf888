// Package attn implements the server-side weight generators compared in
// §3.3 of the paper and used by the PFRL-DM aggregator (§4.4): a multi-head
// attention mechanism over client model embeddings (Eqs. 18–20), plus the
// two similarity baselines the paper shows failing (KL divergence, Figure
// 12, and cosine similarity, Figure 13).
//
// Each generator consumes one embedding per client — here the flattened
// public-critic parameter vector — and returns a K×K row-stochastic weight
// matrix W: row i holds the attention client i pays to every client
// (including itself), which the aggregator uses to mix a personalized model
// ψ_i = Σ_j W[i][j]·ψ_j.
//
// Why attention succeeds where the baselines fail: federated clients all
// descend from the same global initialization, so raw parameter vectors are
// dominated by a large shared component. Cosine similarity of raw vectors is
// therefore ≈1 for every pair (uniform weights), and softmax-KL between
// near-identical parameter distributions is ≈0 everywhere. The attention
// mechanism first centers the embeddings across clients — isolating each
// client's environment-specific drift — then compares the drifts through
// per-head random projections (Q/K share a head's projection so scores
// approximate drift inner products, which Johnson–Lindenstrauss preserves).
// Same-environment clients drift in aligned directions and light up in the
// weight matrix; heterogeneous clients do not.
package attn

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/tensor"
)

// Aggregator generates multi-head attention weights (Eq. 18: softmax of
// QKᵀ/√d_k, averaged over heads per Eq. 20).
type Aggregator struct {
	// Heads is the number of attention heads (independent projections).
	Heads int
	// DK is d_k: the per-head projection dimension.
	DK int
	// Seed fixes the head projection matrices, making the server
	// deterministic across rounds and runs.
	Seed int64
	// Temperature rescales the pre-softmax scores; 1 uses the raw
	// QKᵀ/√d_k scores, larger values flatten, smaller sharpen.
	Temperature float64
	// Center subtracts the cross-client mean embedding before projecting
	// (isolates environment-specific drift; see the package comment).
	Center bool
}

// NewAggregator returns an attention weight generator with the defaults
// used throughout the experiments: 4 heads, d_k = 32, centering on,
// temperature 2. The temperature softens the softmax so a client's
// personalized model blends meaningful mass from similar clients instead of
// collapsing to pure self-attention — with unit-norm drifts the raw
// self-score is √d_k, which at temperature 1 would put ≈0.97 of the mass on
// the diagonal and disable collaboration.
func NewAggregator(seed int64) *Aggregator {
	return &Aggregator{Heads: 4, DK: 32, Seed: seed, Temperature: 2, Center: true}
}

// Weights computes the K×K row-stochastic attention matrix for the given
// client embeddings. All embeddings must share one length. It panics on
// ragged or empty input (programmer error in the server). It is safe for
// concurrent use.
func (a *Aggregator) Weights(embeddings [][]float64) [][]float64 {
	k, dim := checkEmbeddings(embeddings)
	// x·P is accumulated as (xᵀ)ᵀ·P a panel of P's rows at a time, each
	// decoded into one pooled tile: the kernel adds every element's terms in
	// ascending row order, as one x·P would (DESIGN §9 contract 6).
	xt := tensor.DefaultPool().GetUninit(dim, k)
	prepare(embeddings, a.Center, xt)

	acc := tensor.New(k, k)
	heads := a.Heads
	if heads < 1 {
		heads = 1
	}
	dk := a.DK
	if dk < 1 {
		dk = 32
	}
	temp := a.Temperature
	if temp <= 0 {
		temp = 1
	}
	proj := headProjections(projKey{a.Seed, heads, dim, dk})
	tile := tensor.DefaultPool().GetUninit(panelRows, dk)
	q := tensor.Get(k, dk)
	scores := tensor.Get(k, k)
	for h := 0; h < heads; h++ {
		// Q and K share the head projection so scores approximate drift
		// inner products (see package comment).
		q.Zero()
		for j0 := 0; j0 < dim; j0 += panelRows {
			j1 := min(j0+panelRows, dim)
			xp := tensor.Matrix{Rows: j1 - j0, Cols: k, Data: xt.Data[j0*k : j1*k]}
			pp := tensor.Matrix{Rows: j1 - j0, Cols: dk, Data: tile.Data[:(j1-j0)*dk]}
			proj.decode(h, j0, j1, pp.Data)
			q.AddMatMulTransAInPlace(&xp, &pp) // K x dk
		}
		q.MatMulTransBInto(q, scores)
		scores.ScaleInto(1/(math.Sqrt(float64(dk))*temp), scores)
		scores.SoftmaxRowsInto(scores)
		acc.AddInPlace(scores)
	}
	tensor.Put(xt)
	tensor.Put(tile)
	tensor.Put(q)
	tensor.Put(scores)
	acc.ScaleInPlace(1 / float64(heads))
	return toRows(acc)
}

// panelRows is the height of the projection panels Weights decodes: the
// tensor kernel's k block, so each panel is one pass of it over an
// L1-resident tile.
const panelRows = 64

// projections holds one key's head matrices — head h is the dim × d_k
// row-major sequence of NormFloat64 draws from the source seeded
// seed·1 000 003 + h — in a compact exact form. A ziggurat draw that takes
// the fast path returns float64(j)·scale[j&0x7F] for its one int32 draw j,
// so it is stored as j (4 B instead of 8); the few that do not (rejections,
// which cost more than one draw) are kept verbatim in side. Immutable once
// built.
type projections struct {
	projKey
	codes []int32 // heads·dim·dk; 0 where side holds the value
	scale [128]float64
	side  []sideValue // ascending at
}

// projKey is what fixes a projection set.
type projKey struct {
	seed           int64
	heads, dim, dk int
}

// sideValue is a projection value kept verbatim: codes index at.
type sideValue struct {
	at int
	v  float64
}

// cache is the process's one projection set. Weights replaces it when a
// caller asks for another key; a reader that took the old set keeps using
// it, since sets are never mutated.
var cache struct {
	sync.Mutex
	set *projections
}

// headProjections returns the projection set for the key, building it (and
// evicting the previous key) on a miss.
func headProjections(key projKey) *projections {
	cache.Lock()
	defer cache.Unlock()
	if p := cache.set; p == nil || p.projKey != key {
		cache.set = drawProjections(key)
	}
	return cache.set
}

// drawSource passes a math/rand source through unchanged while counting
// Int63 calls and keeping the last value, which tells drawProjections how
// many draws a NormFloat64 took and, for one, what j was. It implements only
// Source, so rand.Rand takes every draw through Int63, as it does from the
// plain source for NormFloat64.
type drawSource struct {
	src   rand.Source
	calls int
	last  int64
}

func (s *drawSource) Int63() int64 {
	s.calls++
	s.last = s.src.Int63()
	return s.last
}

func (s *drawSource) Seed(seed int64) { s.src.Seed(seed) }

// drawProjections draws every head's values in order and encodes each one.
// A bucket's scale is learned from its first single-draw value with j ≠ 0;
// a value is coded only if its code decodes to the drawn value bitwise, so
// exactness is checked per value here, not assumed from math/rand's tables.
func drawProjections(key projKey) *projections {
	p := &projections{projKey: key, codes: make([]int32, key.heads*key.dim*key.dk)}
	var learned [128]bool
	per := key.dim * key.dk
	for h := 0; h < key.heads; h++ {
		src := &drawSource{src: rand.NewSource(key.seed*1_000_003 + int64(h))}
		rng := rand.New(src)
		for i := h * per; i < (h+1)*per; i++ {
			src.calls = 0
			v := rng.NormFloat64()
			if src.calls == 1 {
				j := int32(uint32(src.last >> 31)) // rand.Rand.Uint32, as NormFloat64 draws it
				b := j & 0x7F
				if !learned[b] && j != 0 {
					if s := float64(float32(v / float64(j))); float64(j)*s == v {
						p.scale[b], learned[b] = s, true
					}
				}
				if math.Float64bits(float64(j)*p.scale[b]) == math.Float64bits(v) {
					p.codes[i] = j
					continue
				}
			}
			p.side = append(p.side, sideValue{at: i, v: v})
		}
	}
	return p
}

// decode writes rows [j0, j1) of head h's projection into dst, row-major.
func (p *projections) decode(h, j0, j1 int, dst []float64) {
	lo := (h*p.dim + j0) * p.dk
	hi := lo + (j1-j0)*p.dk
	for i, c := range p.codes[lo:hi] {
		dst[i] = float64(c) * p.scale[uint32(c)&0x7F]
	}
	for s := sort.Search(len(p.side), func(i int) bool { return p.side[i].at >= lo }); s < len(p.side) && p.side[s].at < hi; s++ {
		dst[p.side[s].at-lo] = p.side[s].v
	}
}

// CosineWeights is the Figure-13 baseline: softmax over pairwise cosine
// similarities of the raw embeddings. Because federated models share a
// dominant initialization component, the similarities are all ≈1 and the
// weights come out near-uniform.
func CosineWeights(embeddings [][]float64) [][]float64 {
	k, _ := checkEmbeddings(embeddings)
	norms := make([]float64, k)
	for i, e := range embeddings {
		s := 0.0
		for _, v := range e {
			s += v * v
		}
		norms[i] = math.Sqrt(s)
	}
	scores := tensor.New(k, k)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			dot := 0.0
			for d := range embeddings[i] {
				dot += embeddings[i][d] * embeddings[j][d]
			}
			denom := norms[i] * norms[j]
			if denom < 1e-12 {
				denom = 1e-12
			}
			scores.Set(i, j, dot/denom)
		}
	}
	return toRows(scores.SoftmaxRows())
}

// KLWeights is the Figure-12 baseline: each embedding is turned into a
// probability distribution via a softmax, and w_ij ∝ exp(−KL(p_i‖p_j)).
// Near-identical federated models give KL ≈ 0 for every pair, so the
// weights come out near-uniform.
func KLWeights(embeddings [][]float64) [][]float64 {
	k, _ := checkEmbeddings(embeddings)
	dists := make([][]float64, k)
	for i, e := range embeddings {
		dists[i] = softmaxVec(e)
	}
	scores := tensor.New(k, k)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			scores.Set(i, j, -klDivergence(dists[i], dists[j]))
		}
	}
	return toRows(scores.SoftmaxRows())
}

func checkEmbeddings(embeddings [][]float64) (k, dim int) {
	k = len(embeddings)
	if k == 0 {
		panic("attn: no embeddings")
	}
	dim = len(embeddings[0])
	if dim == 0 {
		panic("attn: empty embedding")
	}
	for i, e := range embeddings {
		if len(e) != dim {
			panic(fmt.Sprintf("attn: embedding %d has length %d, want %d", i, len(e), dim))
		}
	}
	return k, dim
}

// prepare writes the embeddings transposed into xt (dim × k, one column per
// client), optionally centered across clients, and L2-normalizes each
// client's column so score scales are comparable across rounds. Every value
// takes the operations a stacked k × dim matrix's row would, in the same
// order: each feature's mean is the sum over clients in client order times
// 1/k, and each norm sums squares in feature order.
func prepare(embeddings [][]float64, center bool, xt *tensor.Matrix) {
	k := len(embeddings)
	for i, e := range embeddings {
		for j, v := range e {
			xt.Data[j*k+i] = v
		}
	}
	if center {
		inv := 1 / float64(k)
		for j := 0; j < xt.Rows; j++ {
			feature := xt.Row(j)
			mean := 0.0
			for _, v := range feature {
				mean += v
			}
			mean = inv * mean
			for i := range feature {
				feature[i] -= mean
			}
		}
	}
	for i := 0; i < k; i++ {
		n := 0.0
		for j := i; j < len(xt.Data); j += k {
			n += xt.Data[j] * xt.Data[j]
		}
		n = math.Sqrt(n)
		if n < 1e-12 {
			continue // a zero drift stays zero (softmax handles it)
		}
		for j := i; j < len(xt.Data); j += k {
			xt.Data[j] /= n
		}
	}
}

func softmaxVec(v []float64) []float64 {
	mx := v[0]
	for _, x := range v[1:] {
		if x > mx {
			mx = x
		}
	}
	out := make([]float64, len(v))
	sum := 0.0
	for i, x := range v {
		e := math.Exp(x - mx)
		out[i] = e
		sum += e
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

func klDivergence(p, q []float64) float64 {
	const eps = 1e-12
	s := 0.0
	for i := range p {
		pi, qi := p[i]+eps, q[i]+eps
		s += pi * math.Log(pi/qi)
	}
	return s
}

func toRows(m *tensor.Matrix) [][]float64 {
	out := make([][]float64, m.Rows)
	for i := range out {
		out[i] = append([]float64(nil), m.Row(i)...)
	}
	return out
}

// Focus quantifies how much a weight matrix concentrates mass on a given
// pair (i,j) relative to the mean off-diagonal weight — the statistic
// behind the Figures 11–13 heatmap comparison. Values ≫ 1 mean the matrix
// "focuses" on the pair; ≈1 means uniform.
func Focus(w [][]float64, i, j int) float64 {
	k := len(w)
	if k < 2 {
		return 1
	}
	sum, cnt := 0.0, 0
	for r := 0; r < k; r++ {
		for c := 0; c < k; c++ {
			if r != c {
				sum += w[r][c]
				cnt++
			}
		}
	}
	meanOff := sum / float64(cnt)
	if meanOff < 1e-12 {
		return 1
	}
	return w[i][j] / meanOff
}
