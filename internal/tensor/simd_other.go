//go:build !amd64

package tensor

import "math"

// Non-amd64 builds have no SIMD fast path; the portable scalar kernels are
// always used. These stubs keep the call sites compiling and, as a safety
// net, implement the same semantics in pure Go.

var simdEnabled = false

// SetSIMD is the amd64 test toggle; here there is nothing to toggle.
func SetSIMD(bool) bool { return false }

// SIMDEnabled reports whether the AVX-512 fast paths are active.
func SIMDEnabled() bool { return false }

func x86HasAVX512() bool { return false }

func axpyRows(dst, b, s, bias *float64, k, cols, rows, bStride, sStride, dstStride, sRowStride int, skipZeros, accumulate bool) {
	for r := 0; r < rows; r++ {
		dstS := unsafeSlice(offsetPtr(dst, r*dstStride), cols)
		if !accumulate {
			for j := range dstS {
				dstS[j] = 0
			}
		}
		for t := 0; t < k; t++ {
			sv := *offsetPtr(s, r*sRowStride+t*sStride)
			if skipZeros && sv == 0 {
				continue
			}
			bRow := unsafeSlice(offsetPtr(b, t*bStride), cols)
			for j := range dstS {
				dstS[j] += sv * bRow[j]
			}
		}
		if bias != nil {
			for j, bv := range unsafeSlice(bias, cols) {
				dstS[j] += bv
			}
		}
	}
}

func vecAdd(dst, src *float64, n int) {
	d, sl := unsafeSlice(dst, n), unsafeSlice(src, n)
	for i := range d {
		d[i] += sl[i]
	}
}

func vecScale(dst *float64, s float64, n int) {
	d := unsafeSlice(dst, n)
	for i := range d {
		d[i] *= s
	}
}

func vecAllZero(src *float64, n int) bool {
	for _, v := range unsafeSlice(src, n) {
		if math.Float64bits(v) != 0 {
			return false
		}
	}
	return true
}

func tanhGradCols(dst, grad, y *float64, n int) {
	d, g, ys := unsafeSlice(dst, n), unsafeSlice(grad, n), unsafeSlice(y, n)
	for i := range d {
		t := 1 - ys[i]*ys[i]
		d[i] += g[i] * t
	}
}

func gsProject(x, r *float64, rows, n int) {
	xs := unsafeSlice(x, n*gsLanes)
	for j := 0; j < rows; j++ {
		rj := unsafeSlice(offsetPtr(r, j*n), n)
		for l := 0; l < gsLanes; l++ {
			dot := 0.0
			for k, v := range rj {
				dot += xs[k*gsLanes+l] * v
			}
			for k, v := range rj {
				xs[k*gsLanes+l] -= dot * v
			}
		}
	}
}

func adamCols(p, grad, m, v *float64, n int, beta1, c1, beta2, c2, bc1, bc2, lr, eps float64) {
	adamScalar(unsafeSlice(p, n), unsafeSlice(grad, n), unsafeSlice(m, n), unsafeSlice(v, n), lr, beta1, beta2, eps, bc1, bc2)
}
