package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/autograd"
	"repro/internal/tensor"
)

// Activation selects the nonlinearity used between MLP layers.
type Activation int

const (
	// ActTanh is the paper's default hidden activation.
	ActTanh Activation = iota
	// ActReLU is provided for ablations.
	ActReLU
	// ActNone applies no nonlinearity (identity).
	ActNone
)

// String returns the activation name.
func (a Activation) String() string {
	switch a {
	case ActTanh:
		return "tanh"
	case ActReLU:
		return "relu"
	case ActNone:
		return "none"
	default:
		return fmt.Sprintf("Activation(%d)", int(a))
	}
}

func (a Activation) apply(v *autograd.Value) *autograd.Value {
	switch a {
	case ActTanh:
		return autograd.Tanh(v)
	case ActReLU:
		return autograd.ReLU(v)
	case ActNone:
		return v
	default:
		panic("nn: unknown activation " + a.String())
	}
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
	w := tensor.OrthogonalScaled(rng, out, in, gain).T() // stored In x Out for x·W
	return &Linear{
		W: NewParameter(name+".W", w),
		B: NewParameter(name+".B", tensor.New(1, out)),
	}
}

// Forward computes x·W + b on the tape.
func (l *Linear) Forward(tape *autograd.Tape, x *autograd.Value) *autograd.Value {
	return autograd.AddRow(autograd.MatMul(x, l.W.Node(tape)), l.B.Node(tape))
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
	// (ZeroGrads, ClipGradNorm, Proximal.Apply) call it on every minibatch,
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

// Forward runs the network on the tape. x must be N x sizes[0].
func (m *MLP) Forward(tape *autograd.Tape, x *autograd.Value) *autograd.Value {
	h := x
	for i, l := range m.Layers {
		h = l.Forward(tape, h)
		if i+1 < len(m.Layers) {
			h = m.Act.apply(h)
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
// Infer computes exactly the same kernels in the same order as Forward, so
// its outputs are bitwise identical to the tape-based pass (asserted in
// tests). Distinct MLPs may Infer concurrently (the pool is thread-safe),
// but a single MLP must not be shared across goroutines mid-call with a
// shared dst.
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
			out = tensor.Get(x.Rows, m.sizes[i+1])
		}
		cur.MatMulInto(l.W.Data, out)
		out.AddRowBroadcastInto(l.B.Data, out)
		if !last {
			switch m.Act {
			case ActTanh:
				out.TanhInto(out)
			case ActReLU:
				out.ApplyInto(func(v float64) float64 {
					if v > 0 {
						return v
					}
					return 0
				}, out)
			case ActNone:
				// identity
			default:
				panic("nn: unknown activation " + m.Act.String())
			}
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
