package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/autograd"
	"repro/internal/tensor"
)

// Activation selects the nonlinearity between MLP layers. The paper trains
// tanh MLPs (§3.1) and ActTanh is the one value; the type stays because
// NewMLP's callers name it.
type Activation int

// ActTanh is the hidden activation of every network in the paper.
const ActTanh Activation = 0

// String returns the activation name.
func (a Activation) String() string {
	if a == ActTanh {
		return "tanh"
	}
	return fmt.Sprintf("Activation(%d)", int(a))
}

// Linear is a dense layer computing x·W + b, with W stored In x Out.
type Linear struct {
	W *Parameter
	B *Parameter
}

// NewLinear returns a dense in→out layer. Weights use orthogonal
// initialization scaled by gain (the standard PPO initialization); biases
// start at zero.
func NewLinear(rng *rand.Rand, name string, in, out int, gain float64) *Linear {
	return &Linear{
		W: NewParameter(name+".W", tensor.OrthogonalScaled(rng, out, in, gain)),
		B: NewParameter(name+".B", tensor.New(1, out)),
	}
}

// Forward computes x·W + b on the tape, as one autograd.Linear node.
func (l *Linear) Forward(tape *autograd.Tape, x *autograd.Value) *autograd.Value {
	return autograd.Linear(x, l.W.Node(tape), l.B.Node(tape))
}

// Params returns the layer's parameters.
func (l *Linear) Params() []*Parameter { return []*Parameter{l.W, l.B} }

// MLP is a multilayer perceptron: Linear → act → … → Linear. The final
// layer has no activation (raw logits / values).
type MLP struct {
	Layers []*Linear
	Act    Activation
	sizes  []int
	// params caches the flattened Params() result: the optimizer helpers
	// (ZeroGrads, ClipGradNorm) call it on every minibatch,
	// and rebuilding the slice each time shows up in the update hot loop.
	// Layers must not change after construction.
	params []*Parameter
}

// NewMLP builds an MLP with the given layer sizes, e.g. sizes=[538,64,9]
// builds 538→64→9 with one hidden layer. outGain scales the final layer's
// orthogonal initialization (PPO uses small policy-head gains, e.g. 0.01).
func NewMLP(rng *rand.Rand, name string, sizes []int, act Activation, outGain float64) *MLP {
	if len(sizes) < 2 {
		panic("nn: NewMLP needs at least input and output sizes")
	}
	if act != ActTanh {
		panic("nn: unknown activation " + act.String())
	}
	m := &MLP{Act: act, sizes: append([]int(nil), sizes...)}
	for i := 0; i+1 < len(sizes); i++ {
		gain := 1.0
		if i+2 == len(sizes) {
			gain = outGain
		}
		m.Layers = append(m.Layers,
			NewLinear(rng, fmt.Sprintf("%s.l%d", name, i), sizes[i], sizes[i+1], gain))
	}
	return m
}

// Limits on externally declared architectures (an agent checkpoint, see
// rl.LoadAgent). A malformed or hostile declaration must fail fast with an
// error — never panic inside NewMLP or allocate unbounded memory on the say-so
// of outside input.
const (
	// MaxCheckpointDim bounds any single layer width.
	MaxCheckpointDim = 1 << 16
	// MaxCheckpointParams bounds the total parameter count (1M ≈ 8 MB of
	// weights — far above any architecture in this repo).
	MaxCheckpointParams = 1 << 20
)

// CheckSizes validates an externally declared MLP architecture and returns
// its total parameter count. Deserializers call it before constructing
// anything.
func CheckSizes(sizes []int) (int, error) {
	if len(sizes) < 2 {
		return 0, fmt.Errorf("nn: %d layer sizes, need at least 2", len(sizes))
	}
	for i, s := range sizes {
		if s < 1 || s > MaxCheckpointDim {
			return 0, fmt.Errorf("nn: layer size %d at index %d out of [1, %d]", s, i, MaxCheckpointDim)
		}
	}
	var total int64
	for i := 0; i+1 < len(sizes); i++ {
		total += int64(sizes[i]+1) * int64(sizes[i+1])
	}
	if total > MaxCheckpointParams {
		return 0, fmt.Errorf("nn: architecture declares %d params, cap %d", total, MaxCheckpointParams)
	}
	return int(total), nil
}

// Forward runs the network on the tape. x must be N x sizes[0].
func (m *MLP) Forward(tape *autograd.Tape, x *autograd.Value) *autograd.Value {
	h := x
	for i, l := range m.Layers {
		h = l.Forward(tape, h)
		if i+1 < len(m.Layers) {
			h = autograd.Tanh(h)
		}
	}
	return h
}

// Infer runs a gradient-free forward pass — the rollout fast path. No tape
// is built and no graph is recorded; intermediate activations come from the
// shared tensor pool and are returned before Infer exits, so at steady state
// the pass allocates nothing. The output is written into dst (which must be
// x.Rows x output-size) and returned; a nil dst is allocated fresh.
//
// Infer computes exactly the same kernels in the same order as Forward —
// one MatMulBiasInto per layer, the activation in place — so its outputs are
// bitwise identical to the tape-based pass (asserted in tests). Distinct
// MLPs may Infer concurrently (the pool is thread-safe), but a single MLP
// must not be shared across goroutines mid-call with a shared dst.
func (m *MLP) Infer(dst *tensor.Matrix, x *tensor.Matrix) *tensor.Matrix {
	outDim := m.sizes[len(m.sizes)-1]
	if dst == nil {
		dst = tensor.New(x.Rows, outDim)
	}
	cur := x
	var scratch *tensor.Matrix // pooled intermediate owned by this call
	for i, l := range m.Layers {
		last := i+1 == len(m.Layers)
		var out *tensor.Matrix
		if last {
			out = dst
		} else {
			out = tensor.DefaultPool().GetUninit(x.Rows, m.sizes[i+1])
		}
		cur.MatMulBiasInto(l.W.Data, l.B.Data, out)
		if !last {
			out.TanhInto(out)
		}
		if scratch != nil {
			tensor.Put(scratch)
		}
		if !last {
			scratch = out
		}
		cur = out
	}
	return dst
}

// Predict runs a gradient-free forward pass and returns a freshly allocated
// result. It is a convenience wrapper around Infer for callers that keep the
// output; hot paths should pass their own reusable dst to Infer instead.
func (m *MLP) Predict(x *tensor.Matrix) *tensor.Matrix {
	return m.Infer(nil, x)
}

// Params returns all layer parameters in order.
func (m *MLP) Params() []*Parameter {
	if m.params == nil {
		for _, l := range m.Layers {
			m.params = append(m.params, l.Params()...)
		}
	}
	return m.params
}

// Sizes returns a copy of the layer size list.
func (m *MLP) Sizes() []int { return append([]int(nil), m.sizes...) }

// Clone returns a deep copy of the MLP (same architecture and weights).
func (m *MLP) Clone(name string) *MLP {
	rng := rand.New(rand.NewSource(0))
	c := NewMLP(rng, name, m.sizes, m.Act, 1.0)
	if err := CopyParams(c, m); err != nil {
		panic("nn: Clone: " + err.Error())
	}
	return c
}
