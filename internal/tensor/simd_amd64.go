//go:build amd64

package tensor

// SIMD fast paths for the hot kernels. The assembly routines in simd_amd64.s
// vectorize ACROSS OUTPUT COLUMNS only: every output element still sees the
// exact same sequence of scalar multiply-then-add operations, in the same
// k-ascending order, as the portable Go loops. Separate VMULPD + VADDPD are
// used instead of FMA precisely because a fused multiply-add rounds once
// where the scalar code rounds twice — FMA would change low-order bits and
// break the repo's bit-reproducibility guarantee. (The one place FMA does
// appear is tanhCols' exp core, where the scalar reference, math.Exp, uses
// it too on the same CPU; see tanh_amd64.go.) Besides the zero-skip guard,
// the matmul kernel also leaves out the multiply for a scalar of exactly -1,
// whose product is exact: it subtracts b instead, which is the same bits.
// Accumulators started at +0 in registers hold what a zeroed destination
// would, and the bias epilogue is the one add AddRowBroadcastInto makes on
// the stored sum. Under those constraints the SIMD kernels are bitwise identical to the
// scalar kernels (pinned by TestMatMulSIMDMatchesScalar and friends, and
// FuzzMatMulMatchesScalar), so enabling them never changes a training run.

// simdEnabled gates all assembly fast paths. It is true when the CPU and OS
// support AVX-512F. Tests flip it via SetSIMD to compare both paths.
var simdEnabled = x86HasAVX512()

// SetSIMD overrides the runtime SIMD choice; it returns the previous value
// so tests can restore it. It exists for tests, here and in packages whose
// pins compare both paths (attn); nothing else calls it. Disabling always
// works; enabling on a machine without AVX-512 would fault, so enable only
// re-arms the detected value.
func SetSIMD(on bool) bool {
	prev := simdEnabled
	simdEnabled = on && x86HasAVX512()
	return prev
}

// SIMDEnabled reports whether the AVX-512 fast paths are active.
func SIMDEnabled() bool { return simdEnabled }

// x86HasAVX512 reports CPU + OS support for AVX-512F (CPUID leaf 7 EBX bit
// 16, with OSXSAVE and XCR0 opmask/ZMM state enabled).
func x86HasAVX512() bool

// axpyRows computes, for r in [0,rows) and t in [0,k):
//
//	dst[r*dstStride : +cols] += s[r*sRowStride + t*sStride] * b[t*bStride : +cols]
//
// for any k, cols, rows >= 1 (the last cols%8 columns run under a k-mask).
// With skipZeros, scalars equal to zero are skipped entirely, matching the
// `if mv == 0 { continue }` guard in the scalar MatMul/MatMulTransA kernels
// (the test is on the value bits shifted left by one, so -0.0 is skipped
// exactly like +0.0); MatMulTransB's dot products and the scaled-add kernels
// have no such guard and pass false. Accumulators live in registers for the
// whole k loop; per output element the operation sequence is add(mul(s,b))
// in k-ascending order — identical to the scalar loops. Without accumulate
// they start at +0 instead of at dst's values, so dst is only written: the
// sums of a zeroed dst without the zeroing pass. A non-nil bias (cols wide)
// is added to every row's sums once, just before the store: the one rounding
// of AddRowBroadcastInto on the stored product. In the 64-wide column
// panel a scalar whose bits are exactly -1.0 skips the multiply and
// subtracts b: -1*b is exact for every b, and acc - b is acc + (-b) by
// IEEE 754, so the result is the scalar loop's bit for bit (signed zeros and
// Inf - Inf included). The -1 void markers that pad every observation are
// what make it pay. (Which of two different NaN payloads survives an
// operation depends on x86 operand order and is not part of the contract;
// NaN-ness is.)
//
//go:noescape
func axpyRows(dst, b, s, bias *float64, k, cols, rows, bStride, sStride, dstStride, sRowStride int, skipZeros, accumulate bool)

// vecAdd computes dst[0:n] += src[0:n] for n a positive multiple of 8.
//
//go:noescape
func vecAdd(dst, src *float64, n int)

// vecScale computes dst[0:n] *= s for n a positive multiple of 8.
//
//go:noescape
func vecScale(dst *float64, s float64, n int)

// vecAllZero reports whether every one of n elements at src has the bits of
// +0, for n a positive multiple of 8.
//
//go:noescape
func vecAllZero(src *float64, n int) bool

// tanhGradCols computes dst[0:n] += grad * (1 - y*y) for n a positive
// multiple of 8 — the fused tanh backward, bitwise identical to the separate
// ApplyInto(1-y²) + MulElemInto + AddInPlace passes it replaces.
//
//go:noescape
func tanhGradCols(dst, grad, y *float64, n int)

// adamCols applies the element-wise Adam update to n elements (n a positive
// multiple of 8), transcribing the exact float op order of the scalar rule
// in adamScalar — each gradient multiplied by scale as it is loaded — and
// clears grad in the same pass. All ops involved (mul,
// add, sub, div, sqrt) are correctly rounded under IEEE-754, so the vector
// lanes match the scalar loop bitwise. It stores each element's step (the
// amount subtracted from p) at step, which advances stepStride elements
// per element: 1 keeps them all (the first row of a tied run in
// AdamUpdateRows), 0 writes them over one 8-element block.
//
//go:noescape
func adamCols(p, grad, m, v, step *float64, stepStride, n int, beta1, c1, beta2, c2, bc1, bc2, lr, eps, scale float64)

// adamTiedRows finishes a tied run after adamCols stepped its first
// row: each of the rows−1 rows that follow, stride elements apart, takes
// p -= step over its first n elements (a positive multiple of 8), row 0's
// new m and v, and a cleared gradient.
//
//go:noescape
func adamTiedRows(p, grad, m, v, step *float64, n, stride, rows int)

// rowsEqual3 reports whether the rows stride elements after grad, m and v
// hold their bits over the first n elements (a positive multiple of 8).
//
//go:noescape
func rowsEqual3(grad, m, v *float64, n, stride int) bool
