//go:build !amd64 || amd64.v3

package tensor

import "math"

// Builds without the transcribed tanh kernel (see tanh_amd64.go) keep
// math.Tanh.
func tanhCols(dst, src *float64, n int) {
	d, s := unsafeSlice(dst, n), unsafeSlice(src, n)
	for i, v := range s {
		d[i] = math.Tanh(v)
	}
}
