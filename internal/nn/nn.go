// Package nn provides the small neural-network toolkit used by the PPO
// agents: dense layers, multilayer perceptrons, the Adam optimizer, a
// categorical action distribution, and flat-vector parameter serialization
// (the representation exchanged between federated clients and the server).
package nn

import (
	"fmt"
	"math"

	"repro/internal/autograd"
	"repro/internal/tensor"
)

// Parameter couples a trainable matrix with its gradient accumulator.
type Parameter struct {
	Name string
	Data *tensor.Matrix
	Grad *tensor.Matrix
}

// NewParameter wraps data as a named parameter with a zeroed gradient.
func NewParameter(name string, data *tensor.Matrix) *Parameter {
	return &Parameter{Name: name, Data: data, Grad: tensor.New(data.Rows, data.Cols)}
}

// Node registers the parameter on tape as a differentiable leaf whose
// gradient accumulates into p.Grad.
func (p *Parameter) Node(tape *autograd.Tape) *autograd.Value {
	return tape.Param(p.Data, p.Grad)
}

// ZeroGrad clears the accumulated gradient.
func (p *Parameter) ZeroGrad() { p.Grad.Zero() }

// NumElems returns the number of scalar elements in the parameter.
func (p *Parameter) NumElems() int { return len(p.Data.Data) }

// Module is anything with trainable parameters.
type Module interface {
	// Params returns the module's parameters in a stable order.
	Params() []*Parameter
}

// ZeroGrads clears the gradients of every parameter of m.
func ZeroGrads(m Module) {
	for _, p := range m.Params() {
		p.ZeroGrad()
	}
}

// NumParams returns the total scalar parameter count of m.
func NumParams(m Module) int {
	n := 0
	for _, p := range m.Params() {
		n += p.NumElems()
	}
	return n
}

// ClipGradNorm rescales all gradients of m so their global L2 norm is at
// most maxNorm, and returns the pre-clipping norm. maxNorm <= 0 disables
// clipping. The sum of squares stays one scalar loop in parameter order (its
// order is part of the bits); the rescale is elementwise, so it takes the
// SIMD ScaleInPlace.
func ClipGradNorm(m Module, maxNorm float64) float64 {
	total := 0.0
	for _, p := range m.Params() {
		for _, g := range p.Grad.Data {
			total += g * g
		}
	}
	norm := math.Sqrt(total)
	if maxNorm > 0 && norm > maxNorm {
		scale := maxNorm / (norm + 1e-12)
		for _, p := range m.Params() {
			p.Grad.ScaleInPlace(scale)
		}
	}
	return norm
}

// FlattenParams serializes every parameter of m into one flat vector, in
// Params() order. This is the wire format for federated aggregation.
func FlattenParams(m Module) []float64 {
	out := make([]float64, 0, NumParams(m))
	for _, p := range m.Params() {
		out = append(out, p.Data.Data...)
	}
	return out
}

// LoadFlatParams copies flat back into m's parameters (inverse of
// FlattenParams). It returns an error if the length does not match.
func LoadFlatParams(m Module, flat []float64) error {
	want := NumParams(m)
	if len(flat) != want {
		return fmt.Errorf("nn: LoadFlatParams got %d values, model has %d", len(flat), want)
	}
	off := 0
	for _, p := range m.Params() {
		n := p.NumElems()
		copy(p.Data.Data, flat[off:off+n])
		off += n
	}
	return nil
}

// CopyParams copies the parameter values of src into dst. The two modules
// must have identical parameter shapes in identical order.
func CopyParams(dst, src Module) error {
	dp, sp := dst.Params(), src.Params()
	if len(dp) != len(sp) {
		return fmt.Errorf("nn: CopyParams parameter count mismatch %d vs %d", len(dp), len(sp))
	}
	for i := range dp {
		if !dp[i].Data.SameShape(sp[i].Data) {
			return fmt.Errorf("nn: CopyParams shape mismatch at %d (%s vs %s)", i, dp[i].Name, sp[i].Name)
		}
		dp[i].Data.CopyFrom(sp[i].Data)
	}
	return nil
}
