//go:build amd64 && !amd64.v3

package tensor

// tanhCols computes dst[0:n] = math.Tanh(src[0:n]) for any n >= 1, eight
// lanes at a time with a masked final vector; dst may equal src.
//
// It is a lane-wise TRANSCRIPTION of the toolchain's math.Tanh (math/tanh.go
// plus the archExp core of math/exp_amd64.s, go1.24), not an approximation
// of tanh: every lane performs the IEEE operations the scalar code performs,
// in its order, so the output is bitwise identical to math.Tanh on every
// input (pinned by TestTanhIntoMatchesMath and FuzzTanhMatchesMath):
//
//   - |x| < 0.625: the rational x + x·s·P(s)/Q(s) with separate multiplies
//     and adds — what the compiler emits for tanh.go on amd64, which never
//     fuses a*b+c.
//   - 0.625 <= |x| <= MAXLOG/2: 1 - 2/(exp(2|x|)+1), with exp exactly as
//     archExp runs it when math.useFMA is true (VCVTPD2DQ, two VFNMADD231
//     reductions, the seven-step VFMADD213 Horner chain, four square-ups,
//     exponent insert). Every AVX-512 CPU has FMA, so simdEnabled implies
//     math.useFMA; the FMAs here are the ones math.Exp itself executes on
//     this CPU, not an extra rounding shortcut. In this range 2|x| is in
//     [1.25, 88.03], so archExp's non-finite/overflow/denormal exits are
//     unreachable and are not transcribed.
//   - |x| > MAXLOG/2 gives ±1, x == ±0 gives x, NaN falls through the
//     rational branch like the scalar code; the branches are blended with
//     k-masks.
//
// The build tag keeps the kernel off GOAMD64=v3 builds: go1.24's amd64
// backend fuses nothing at any GOAMD64 level, but a backend that starts
// fusing tanh.go's a*s+b under v3 (as arm64, ppc64 and s390x already do)
// would change math.Tanh's bits there; those builds keep math.Tanh through
// tanh_other.go. A red TestTanhIntoMatchesMath after a toolchain bump means
// math.Tanh or archExp changed: re-transcribe the kernel or drop the fast
// path — never loosen the test.
//
//go:noescape
func tanhCols(dst, src *float64, n int)
