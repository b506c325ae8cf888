package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// orthogonalScaledReference is OrthogonalScaled as it was before the SIMD
// kernel, frozen: the draws, the row-by-row Gram–Schmidt against the earlier
// scaled rows, the redraw of a vanished row and the gain. Every initialised
// network's bits come from it.
func orthogonalScaledReference(rng *rand.Rand, fanOut, fanIn int, gain float64) *Matrix {
	m := RandNormal(rng, fanOut, fanIn, 0, 1)
	for i := 0; i < fanOut; i++ {
		ri := m.Row(i)
		for j := 0; j < i && j < fanIn; j++ {
			rj := m.Row(j)
			dot := 0.0
			for k := range ri {
				dot += ri[k] * rj[k]
			}
			for k := range ri {
				ri[k] -= dot * rj[k]
			}
		}
		norm := 0.0
		for _, v := range ri {
			norm += v * v
		}
		norm = math.Sqrt(norm)
		if norm < 1e-12 {
			for k := range ri {
				ri[k] = rng.NormFloat64()
			}
			norm = 0
			for _, v := range ri {
				norm += v * v
			}
			norm = math.Sqrt(norm)
		}
		inv := gain / norm
		for k := range ri {
			ri[k] *= inv
		}
	}
	return m
}

// requireOrthogonalMatchesReference draws one matrix through OrthogonalScaled
// and one through the frozen reference from equal seeds and requires the
// reference's bits transposed into the x·W layout, and the same next draw
// from both generators (the redraws took as many values).
func requireOrthogonalMatchesReference(t *testing.T, seed int64, fanOut, fanIn int, gain float64) {
	t.Helper()
	wantRNG, gotRNG := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	want := orthogonalScaledReference(wantRNG, fanOut, fanIn, gain).T()
	got := OrthogonalScaled(gotRNG, fanOut, fanIn, gain)
	label := fmt.Sprintf("seed %d %dx%d gain %v simd %v", seed, fanOut, fanIn, gain, SIMDEnabled())
	if got.Rows != fanIn || got.Cols != fanOut {
		t.Fatalf("%s: got a %dx%d matrix, want fanIn x fanOut", label, got.Rows, got.Cols)
	}
	requireBitIdentical(t, label, want.Data, got.Data)
	if w, g := wantRNG.Int63(), gotRNG.Int63(); w != g {
		t.Fatalf("%s: the generators part after the call: next draw %d vs %d", label, w, g)
	}
}

// TestOrthogonalScaledMatchesReference pins OrthogonalScaled, SIMD on and
// off, to the frozen loop transposed: the networks' shapes (64 rows over the
// observation widths, the heads), every remainder of the 32-row block
// (fanOut 1–33, 63, 64, 65) over fan-ins below and above its width (5, 16,
// 64) and the observation widths 136 and 561, and 70x3, where most rows are
// redrawn.
// Gains of 1e154 and up overflow into Inf and NaN on a few shapes: the
// reference never negates a NaN, so every NaN must keep its sign bit.
func TestOrthogonalScaledMatchesReference(t *testing.T) {
	type shape struct{ fanOut, fanIn int }
	var shapes []shape
	shapes = append(shapes, shape{64, 60})
	for _, out := range []int{1, 6, 9} {
		shapes = append(shapes, shape{out, 64})
	}
	for _, in := range []int{5, 16, 64, 136, 561} {
		for out := 1; out <= 33; out++ {
			shapes = append(shapes, shape{out, in})
		}
		shapes = append(shapes, shape{63, in}, shape{64, in}, shape{65, in})
	}
	shapes = append(shapes, shape{70, 3})
	for _, simd := range []bool{false, true} {
		prev := SetSIMD(simd)
		for _, s := range shapes {
			for _, gain := range []float64{0.01, 1, math.Sqrt2} {
				for seed := int64(1); seed <= 5; seed++ {
					requireOrthogonalMatchesReference(t, seed, s.fanOut, s.fanIn, gain)
				}
			}
		}
		for _, s := range []shape{{33, 33}, {64, 60}, {40, 5}, {65, 16}, {70, 3}} {
			for _, gain := range []float64{1e154, 1e300, math.MaxFloat64} {
				for seed := int64(1); seed <= 3; seed++ {
					requireOrthogonalMatchesReference(t, seed, s.fanOut, s.fanIn, gain)
				}
			}
		}
		SetSIMD(prev)
	}
}

// FuzzOrthogonalScaled compares OrthogonalScaled on the machine's fast path
// with the frozen reference, transposed, on shapes up to 80x80 and any
// finite gain.
func FuzzOrthogonalScaled(f *testing.F) {
	f.Add(int64(1), uint8(63), uint8(59), 1.0)       // 64x60, the hidden layers
	f.Add(int64(3), uint8(5), uint8(63), 0.01)       // 6x64, the actor head
	f.Add(int64(7), uint8(69), uint8(2), math.Sqrt2) // 70x3, redraws
	f.Add(int64(2), uint8(32), uint8(32), 1.0)       // 33x33, a one-row second block
	f.Add(int64(1), uint8(39), uint8(4), 1e154)      // 40x5, overflows into NaN
	f.Fuzz(func(t *testing.T, seed int64, out, in uint8, gain float64) {
		if math.IsNaN(gain) || math.IsInf(gain, 0) {
			return
		}
		requireOrthogonalMatchesReference(t, seed, 1+int(out)%80, 1+int(in)%80, gain)
	})
}

func BenchmarkOrthogonalScaled(b *testing.B) {
	for _, s := range []struct{ fanOut, fanIn int }{{64, 60}, {64, 64}, {64, 136}, {6, 64}} {
		b.Run(fmt.Sprintf("%dx%d", s.fanOut, s.fanIn), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < b.N; i++ {
				OrthogonalScaled(rng, s.fanOut, s.fanIn, math.Sqrt2)
			}
		})
	}
}
