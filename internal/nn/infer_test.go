package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/autograd"
	"repro/internal/tensor"
)

// TestInferMatchesForwardBitwise is the tentpole correctness gate for the
// inference fast path: Infer must reproduce the tape-based Forward exactly,
// for batch sizes 1 and >1, and when its dst buffer is
// reused (and dirty) across calls.
func TestInferMatchesForwardBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, sizes := range [][]int{{9, 5}, {13, 64, 7}, {11, 32, 16, 3}} {
		m := NewMLP(rng, "m", sizes, ActTanh, 0.01)
		dst := tensor.New(1, sizes[len(sizes)-1])
		for _, batch := range []int{1, 1, 6} { // repeat batch 1 to exercise dst reuse
			x := tensor.RandNormal(rng, batch, sizes[0], 0, 1)
			tape := new(autograd.Tape)
			want := m.Forward(tape, tape.Const(x)).Data

			if dst.Rows != batch {
				dst = tensor.New(batch, sizes[len(sizes)-1])
			}
			dst.Fill(123.456) // dirty buffer must not influence the result
			got := m.Infer(dst, x)
			if got != dst {
				t.Fatalf("Infer did not write into dst")
			}
			for i := range want.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
					t.Fatalf("sizes=%v batch=%d: Infer[%d]=%v, Forward=%v",
						sizes, batch, i, got.Data[i], want.Data[i])
				}
			}

			fresh := m.Infer(nil, x)
			for i := range want.Data {
				if math.Float64bits(fresh.Data[i]) != math.Float64bits(want.Data[i]) {
					t.Fatalf("Infer(nil, x) deviates from Forward at %d", i)
				}
			}
		}
	}
}

// TestInferConcurrentDistinctMLPs runs Infer on separate MLPs from many
// goroutines sharing the default tensor pool (run under -race in CI).
func TestInferConcurrentDistinctMLPs(t *testing.T) {
	done := make(chan [2]*tensor.Matrix)
	for g := 0; g < 8; g++ {
		go func(seed int64) {
			rng := rand.New(rand.NewSource(seed))
			m := NewMLP(rng, "m", []int{17, 64, 4}, ActTanh, 0.01)
			x := tensor.RandNormal(rng, 1, 17, 0, 1)
			dst := tensor.New(1, 4)
			for i := 0; i < 200; i++ {
				m.Infer(dst, x)
			}
			tape := new(autograd.Tape)
			done <- [2]*tensor.Matrix{dst.Clone(), m.Forward(tape, tape.Const(x)).Data}
		}(int64(g))
	}
	for g := 0; g < 8; g++ {
		pair := <-done
		for i := range pair[1].Data {
			if math.Float64bits(pair[0].Data[i]) != math.Float64bits(pair[1].Data[i]) {
				t.Fatalf("concurrent Infer deviates from Forward")
			}
		}
	}
}

// categorical returns a fresh distribution over logits: the zero
// Categorical after one SetLogits.
func categorical(logits []float64, mask []bool) *Categorical {
	c := new(Categorical)
	c.SetLogits(logits, mask)
	return c
}

// TestSetLogitsMatchesNewCategorical pins that a reused Categorical holds the
// bits of a new one, whatever it held before.
func TestSetLogitsMatchesNewCategorical(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	reused := &Categorical{}
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(9)
		logits := make([]float64, n)
		for i := range logits {
			logits[i] = rng.NormFloat64() * 3
		}
		var mask []bool
		switch trial % 3 {
		case 1:
			mask = make([]bool, n)
			for i := range mask {
				mask[i] = rng.Float64() < 0.6
			}
		case 2:
			mask = make([]bool, n) // fully masked → uniform fallback
		}
		want := categorical(logits, mask)
		reused.SetLogits(logits, mask)
		for a := 0; a < n; a++ {
			if math.Float64bits(reused.probs[a]) != math.Float64bits(want.probs[a]) {
				t.Fatalf("trial %d: P(%d) %v != %v", trial, a, reused.probs[a], want.probs[a])
			}
			if math.Float64bits(reused.LogProb(a)) != math.Float64bits(want.LogProb(a)) {
				t.Fatalf("trial %d: LogProb(%d) %v != %v", trial, a, reused.LogProb(a), want.LogProb(a))
			}
		}
	}
}

// TestSetLogitsClearsStaleMaskedProbs guards the reuse-specific bug class:
// a masked action must have probability zero even when the reused buffer
// held a positive value for it on the previous step.
func TestSetLogitsClearsStaleMaskedProbs(t *testing.T) {
	c := categorical([]float64{1, 2, 3}, nil)
	if c.probs[0] == 0 {
		t.Fatal("setup: expected nonzero prob")
	}
	c.SetLogits([]float64{1, 2, 3}, []bool{false, true, true})
	if c.probs[0] != 0 {
		t.Fatalf("stale probability leaked through mask: %v", c.probs[0])
	}
	if !math.IsInf(c.LogProb(0), -1) {
		t.Fatalf("masked logp should be -Inf, got %v", c.LogProb(0))
	}
	// Shrinking then regrowing must not resurrect old values.
	c.SetLogits([]float64{5}, nil)
	c.SetLogits([]float64{0, 0, 0}, []bool{true, false, true})
	if c.probs[1] != 0 {
		t.Fatalf("regrown buffer leaked stale prob: %v", c.probs[1])
	}
}
