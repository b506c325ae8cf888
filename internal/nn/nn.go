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
//
// Grad is storage the parameter borrows only while something accumulates
// into it: nil — a new parameter's, and after ReleaseGrads — reads as a
// gradient of all +0, and whatever needs the storage (Node, Gradient,
// Adam.Step) borrows a zeroed buffer of Data's shape. A network between
// updates therefore holds its parameters and no gradients.
type Parameter struct {
	Name string
	Data *tensor.Matrix
	Grad *tensor.Matrix

	// writes counts the writes nn made to Data (see Generation).
	writes uint64
}

// NewParameter wraps data as a named parameter, with a gradient of +0 and
// no gradient storage.
func NewParameter(name string, data *tensor.Matrix) *Parameter {
	return &Parameter{Name: name, Data: data}
}

// Gradient returns p's gradient storage, a zeroed buffer from the tensor
// pool when p holds none. It stays p's until ReleaseGrads.
func (p *Parameter) Gradient() *tensor.Matrix {
	if p.Grad == nil {
		p.Grad = tensor.Get(p.Data.Rows, p.Data.Cols)
	}
	return p.Grad
}

// Node registers the parameter on tape as a differentiable leaf whose
// gradient accumulates into p.Grad, borrowed if p holds none.
func (p *Parameter) Node(tape *autograd.Tape) *autograd.Value {
	return tape.Param(p.Data, p.Gradient())
}

// ZeroGrad clears the accumulated gradient. Without storage it is +0
// already.
func (p *Parameter) ZeroGrad() {
	if p.Grad != nil {
		p.Grad.Zero()
	}
}

// ReleaseGrads puts the gradient storage of every parameter of m back in
// the tensor pool, and the parameter holds none again, its gradient reading
// +0. No Value of a tape that still references the storage may be used
// after.
func ReleaseGrads(m Module) {
	for _, p := range m.Params() {
		if p.Grad != nil {
			tensor.Put(p.Grad)
			p.Grad = nil
		}
	}
}

// NumElems returns the number of scalar elements in the parameter.
func (p *Parameter) NumElems() int { return len(p.Data.Data) }

// Module is anything with trainable parameters.
type Module interface {
	// Params returns the module's parameters in a stable order.
	Params() []*Parameter
}

// ZeroGrads clears the gradients of every parameter of m. A parameter
// without gradient storage is left without.
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

// Generation returns m's parameter generation: a counter that grows with
// every write nn makes to m's parameters — an optimizer step, LoadFlatParams,
// CopyParams, a checkpoint load — and never rewinds (an optimizer's step
// count does, on Reset). A value computed from m's parameters is still valid
// while Generation returns what it returned then. A write made to a
// Parameter's Data outside nn is not counted.
func Generation(m Module) uint64 {
	g := uint64(0)
	for _, p := range m.Params() {
		g += p.writes
	}
	return g
}

// ClipGradNorm returns the global L2 norm of m's gradients and the factor
// that clips them to at most maxNorm: maxNorm/(norm+1e-12) when the norm
// exceeds it, else 1 (maxNorm <= 0 disables clipping). It writes no
// gradient: Adam.StepScaled multiplies each gradient by the factor as it
// loads it, the one rounding a rescaling pass would have stored, and ×1 is
// exact. The sum of squares stays one scalar loop in parameter order (its
// order is part of the bits). A parameter without gradient storage adds +0
// terms, so it is skipped and borrows none.
func ClipGradNorm(m Module, maxNorm float64) (norm, scale float64) {
	total := 0.0
	for _, p := range m.Params() {
		if p.Grad == nil {
			continue
		}
		for _, g := range p.Grad.Data {
			total += g * g
		}
	}
	norm = math.Sqrt(total)
	if maxNorm > 0 && norm > maxNorm {
		return norm, maxNorm / (norm + 1e-12)
	}
	return norm, 1
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
		p.writes++
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
		dp[i].writes++
	}
	return nil
}
