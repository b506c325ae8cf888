//go:build amd64

#include "textflag.h"

// func x86HasAVX512() bool
//
// AVX-512F requires CPU support (CPUID.7.0:EBX bit 16) and OS support for
// the ZMM/opmask register state (OSXSAVE set, XCR0 bits 1,2,5,6,7).
TEXT ·x86HasAVX512(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $(1<<27), CX // OSXSAVE
	JZ   no
	XORL CX, CX
	XGETBV
	ANDL $0xE6, AX    // XMM|YMM|opmask|ZMM_hi256|hi16_ZMM
	CMPL AX, $0xE6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $(1<<16), BX // AVX512F
	JZ   no
	MOVB $1, ret+0(FP)
	RET
no:
	MOVB $0, ret+0(FP)
	RET

// The bit pattern of -1.0, compared against a scalar's raw bits.
DATA negOne<>+0(SB)/8, $0xBFF0000000000000
GLOBL negOne<>(SB), RODATA|NOPTR, $8

// func axpyRows(dst, b, s, bias *float64, k, cols, rows, bStride, sStride, dstStride, sRowStride int, skipZeros, accumulate bool)
//
// for r in [0,rows), t in [0,k):
//	dst[r*dstStride : +cols] += s[r*sRowStride + t*sStride] * b[t*bStride : +cols]
//
// k, cols and rows are any positive counts. The j-dimension (columns) is what
// gets vectorized; every output element keeps the scalar kernels' exact
// k-ascending mul-then-add sequence. With skipZeros, zero scalars are skipped
// just like the scalar `if mv == 0 { continue }` guard (SHLQ $1 drops the sign
// bit, so -0.0 is skipped too); without it R14 = 1 is OR-ed into the test so
// the branch is never taken. No FMA anywhere: VMULPD then VADDPD round twice,
// exactly like the Go code.
//
// Without accumulate the accumulators start at +0 in registers (VPXORQ) and
// dst is only written: the same sums as loading a zeroed dst, without the
// caller's zeroing pass. With a non-nil bias, bias[0:cols] is added to every
// row's accumulators once, after the k loop and just before the store — the
// single rounding AddRowBroadcastInto applies to the stored sum.
//
// In the 64-wide panel a scalar whose bits are exactly -1.0 is not
// multiplied: the loop subtracts b, with no broadcast and no VMULPD. acc - b
// is the same bits as acc + (-1*b), because -1*b is exact (a sign flip, for
// every b including ±0, subnormals and ±Inf) and IEEE 754 defines x - y as
// x + (-y), signed zeros and Inf - Inf = NaN included. Observations pad every
// void position with -1, so it is most of the scalars a first layer sees, and
// a 64-unit first layer is this panel. The other panels keep the plain
// zero test: no workload sends them -1s.
//
// Columns are consumed in 64-wide panels (8 ZMM accumulators held across the
// whole k loop — the repo's MLPs are 64 units wide, so the common case is a
// single panel), then 32-wide, then 8-wide under a k-mask that also covers
// the last cols%8 columns (masked-off lanes are neither loaded nor stored, so
// the kernel never touches memory past a row's end). Each column belongs to
// exactly one panel, so the panel split never reorders any element's
// accumulation. Within a panel the rows run one after another, except in the
// masked panel: one accumulator per row is a k-deep chain of dependent adds
// (a 64x1 critic head would be nothing else), so four rows share each pass
// over b and their chains overlap.
//
// dst, bias (when non-nil), cols and dstStride are advanced in their
// argument slots.
TEXT ·axpyRows(SB), NOSPLIT, $0-90
	MOVQ b+8(FP), SI
	MOVQ k+32(FP), R8
	MOVQ bStride+56(FP), R10
	MOVQ sStride+64(FP), R11
	MOVQ sRowStride+80(FP), R9
	MOVBQZX skipZeros+88(FP), R14
	XORQ $1, R14 // 1 = keep zero scalars
	SHLQ $3, R10 // b row stride in bytes
	SHLQ $3, R11 // s stride in bytes
	SHLQ $3, R9  // s row stride in bytes
	LEAQ (R9)(R9*2), R12
	SHLQ $3, dstStride+72(FP)

panel64: // 8 ZMM accumulators = 64 columns per pass
	CMPQ cols+40(FP), $64
	JLT  panel32
	MOVQ dst+0(FP), DI
	MOVQ s+16(FP), DX
	MOVQ rows+48(FP), R15

row64:
	CMPB accumulate+89(FP), $0
	JEQ  zero64
	VMOVUPD (DI), Z0
	VMOVUPD 64(DI), Z1
	VMOVUPD 128(DI), Z2
	VMOVUPD 192(DI), Z3
	VMOVUPD 256(DI), Z20
	VMOVUPD 320(DI), Z21
	VMOVUPD 384(DI), Z22
	VMOVUPD 448(DI), Z23
	JMP  start64

zero64:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z20, Z20, Z20
	VPXORQ Z21, Z21, Z21
	VPXORQ Z22, Z22, Z22
	VPXORQ Z23, Z23, Z23

start64:
	MOVQ SI, BX  // &b[panel start]
	MOVQ DX, CX  // &s[row start]
	MOVQ R8, R13 // k countdown

k64:
	MOVQ (CX), AX
	CMPQ AX, negOne<>(SB)
	JEQ  neg64
	SHLQ $1, AX // ±0.0 → ZF set → skip, matching the scalar guard
	ORQ  R14, AX
	JZ   skip64
	VBROADCASTSD (CX), Z4
	VMULPD (BX), Z4, Z5
	VADDPD Z5, Z0, Z0
	VMULPD 64(BX), Z4, Z6
	VADDPD Z6, Z1, Z1
	VMULPD 128(BX), Z4, Z7
	VADDPD Z7, Z2, Z2
	VMULPD 192(BX), Z4, Z8
	VADDPD Z8, Z3, Z3
	VMULPD 256(BX), Z4, Z24
	VADDPD Z24, Z20, Z20
	VMULPD 320(BX), Z4, Z25
	VADDPD Z25, Z21, Z21
	VMULPD 384(BX), Z4, Z26
	VADDPD Z26, Z22, Z22
	VMULPD 448(BX), Z4, Z27
	VADDPD Z27, Z23, Z23
	JMP  skip64

neg64: // s = -1: acc - b
	VSUBPD (BX), Z0, Z0
	VSUBPD 64(BX), Z1, Z1
	VSUBPD 128(BX), Z2, Z2
	VSUBPD 192(BX), Z3, Z3
	VSUBPD 256(BX), Z20, Z20
	VSUBPD 320(BX), Z21, Z21
	VSUBPD 384(BX), Z22, Z22
	VSUBPD 448(BX), Z23, Z23

skip64:
	ADDQ R10, BX
	ADDQ R11, CX
	DECQ R13
	JNZ  k64
	MOVQ bias+24(FP), AX
	TESTQ AX, AX
	JZ   store64
	VADDPD (AX), Z0, Z0
	VADDPD 64(AX), Z1, Z1
	VADDPD 128(AX), Z2, Z2
	VADDPD 192(AX), Z3, Z3
	VADDPD 256(AX), Z20, Z20
	VADDPD 320(AX), Z21, Z21
	VADDPD 384(AX), Z22, Z22
	VADDPD 448(AX), Z23, Z23

store64:
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	VMOVUPD Z20, 256(DI)
	VMOVUPD Z21, 320(DI)
	VMOVUPD Z22, 384(DI)
	VMOVUPD Z23, 448(DI)
	ADDQ dstStride+72(FP), DI
	ADDQ R9, DX
	DECQ R15
	JNZ  row64
	ADDQ $512, SI
	ADDQ $512, dst+0(FP)
	MOVQ bias+24(FP), AX // a non-nil bias moves with the columns
	LEAQ 512(AX), BX
	TESTQ AX, AX
	CMOVQNE BX, AX
	MOVQ AX, bias+24(FP)
	SUBQ $64, cols+40(FP)
	JMP  panel64

panel32: // 4 ZMM accumulators = 32 columns per pass
	CMPQ cols+40(FP), $32
	JLT  panel8
	MOVQ dst+0(FP), DI
	MOVQ s+16(FP), DX
	MOVQ rows+48(FP), R15

row32:
	CMPB accumulate+89(FP), $0
	JEQ  zero32
	VMOVUPD (DI), Z0
	VMOVUPD 64(DI), Z1
	VMOVUPD 128(DI), Z2
	VMOVUPD 192(DI), Z3
	JMP  start32

zero32:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3

start32:
	MOVQ SI, BX
	MOVQ DX, CX
	MOVQ R8, R13

k32:
	MOVQ (CX), AX
	SHLQ $1, AX
	ORQ  R14, AX
	JZ   skip32
	VBROADCASTSD (CX), Z4
	VMULPD (BX), Z4, Z5
	VADDPD Z5, Z0, Z0
	VMULPD 64(BX), Z4, Z6
	VADDPD Z6, Z1, Z1
	VMULPD 128(BX), Z4, Z7
	VADDPD Z7, Z2, Z2
	VMULPD 192(BX), Z4, Z8
	VADDPD Z8, Z3, Z3

skip32:
	ADDQ R10, BX
	ADDQ R11, CX
	DECQ R13
	JNZ  k32
	MOVQ bias+24(FP), AX
	TESTQ AX, AX
	JZ   store32
	VADDPD (AX), Z0, Z0
	VADDPD 64(AX), Z1, Z1
	VADDPD 128(AX), Z2, Z2
	VADDPD 192(AX), Z3, Z3

store32:
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	ADDQ dstStride+72(FP), DI
	ADDQ R9, DX
	DECQ R15
	JNZ  row32
	ADDQ $256, SI
	ADDQ $256, dst+0(FP)
	MOVQ bias+24(FP), AX
	LEAQ 256(AX), BX
	TESTQ AX, AX
	CMOVQNE BX, AX
	MOVQ AX, bias+24(FP)
	SUBQ $32, cols+40(FP)
	JMP  panel32

panel8: // single ZMM under K1 = the panel's min(8, cols left) columns
	MOVQ cols+40(FP), CX
	TESTQ CX, CX
	JLE  done
	MOVL $0xFF, AX
	CMPQ CX, $8
	JGE  mask8
	MOVL $1, AX
	SHLL CX, AX
	DECL AX

mask8:
	KMOVW AX, K1
	MOVQ dst+0(FP), DI
	MOVQ s+16(FP), DX
	MOVQ rows+48(FP), R15
	MOVQ bias+24(FP), AX
	TESTQ AX, AX
	JZ   rows4
	VMOVUPD.Z (AX), K1, Z9 // the panel's bias lanes, for every row

rows4: // four rows per pass: s rows at CX, CX+R9, CX+2*R9, CX+R12
	CMPQ R15, $4
	JLT  rows1
	CMPB accumulate+89(FP), $0
	JEQ  zero8x4
	MOVQ dstStride+72(FP), AX
	LEAQ (AX)(AX*2), BX
	VMOVUPD.Z (DI), K1, Z0
	VMOVUPD.Z (DI)(AX*1), K1, Z1
	VMOVUPD.Z (DI)(AX*2), K1, Z2
	VMOVUPD.Z (DI)(BX*1), K1, Z3
	JMP  start8x4

zero8x4:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3

start8x4:
	MOVQ SI, BX
	MOVQ DX, CX
	MOVQ R8, R13

k8x4:
	VMOVUPD.Z (BX), K1, Z5
	MOVQ (CX), AX
	SHLQ $1, AX
	ORQ  R14, AX
	JZ   skip8a
	VBROADCASTSD (CX), Z4
	VMULPD Z5, Z4, Z4
	VADDPD Z4, Z0, Z0

skip8a:
	MOVQ (CX)(R9*1), AX
	SHLQ $1, AX
	ORQ  R14, AX
	JZ   skip8b
	VBROADCASTSD (CX)(R9*1), Z6
	VMULPD Z5, Z6, Z6
	VADDPD Z6, Z1, Z1

skip8b:
	MOVQ (CX)(R9*2), AX
	SHLQ $1, AX
	ORQ  R14, AX
	JZ   skip8c
	VBROADCASTSD (CX)(R9*2), Z7
	VMULPD Z5, Z7, Z7
	VADDPD Z7, Z2, Z2

skip8c:
	MOVQ (CX)(R12*1), AX
	SHLQ $1, AX
	ORQ  R14, AX
	JZ   skip8d
	VBROADCASTSD (CX)(R12*1), Z8
	VMULPD Z5, Z8, Z8
	VADDPD Z8, Z3, Z3

skip8d:
	ADDQ R10, BX
	ADDQ R11, CX
	DECQ R13
	JNZ  k8x4
	CMPQ bias+24(FP), $0
	JEQ  store8x4
	VADDPD Z9, Z0, Z0
	VADDPD Z9, Z1, Z1
	VADDPD Z9, Z2, Z2
	VADDPD Z9, Z3, Z3

store8x4:
	MOVQ dstStride+72(FP), AX
	LEAQ (AX)(AX*2), BX
	VMOVUPD Z0, K1, (DI)
	VMOVUPD Z1, K1, (DI)(AX*1)
	VMOVUPD Z2, K1, (DI)(AX*2)
	VMOVUPD Z3, K1, (DI)(BX*1)
	LEAQ (DI)(AX*4), DI
	LEAQ (DX)(R9*4), DX
	SUBQ $4, R15
	JMP  rows4

rows1: // the last rows%4 rows, one per pass
	TESTQ R15, R15
	JZ   next8
	CMPB accumulate+89(FP), $0
	JEQ  zero8
	VMOVUPD.Z (DI), K1, Z0
	JMP  start8

zero8:
	VPXORQ Z0, Z0, Z0

start8:
	MOVQ SI, BX
	MOVQ DX, CX
	MOVQ R8, R13

k8:
	MOVQ (CX), AX
	SHLQ $1, AX
	ORQ  R14, AX
	JZ   skip8
	VBROADCASTSD (CX), Z4
	VMOVUPD.Z (BX), K1, Z5
	VMULPD Z5, Z4, Z5
	VADDPD Z5, Z0, Z0

skip8:
	ADDQ R10, BX
	ADDQ R11, CX
	DECQ R13
	JNZ  k8
	CMPQ bias+24(FP), $0
	JEQ  store8
	VADDPD Z9, Z0, Z0

store8:
	VMOVUPD Z0, K1, (DI)
	ADDQ dstStride+72(FP), DI
	ADDQ R9, DX
	DECQ R15
	JMP  rows1

next8:
	ADDQ $64, SI
	ADDQ $64, dst+0(FP)
	MOVQ bias+24(FP), AX
	LEAQ 64(AX), BX
	TESTQ AX, AX
	CMOVQNE BX, AX
	MOVQ AX, bias+24(FP)
	SUBQ $8, cols+40(FP)
	JMP  panel8

done:
	VZEROUPPER
	RET

// func vecAdd(dst, src *float64, n int)
//
// dst[0:n] += src[0:n], n a positive multiple of 8.
TEXT ·vecAdd(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ R12, R12

add32:
	CMPQ CX, $32
	JLT  add8
	VMOVUPD (DI)(R12*1), Z0
	VMOVUPD 64(DI)(R12*1), Z1
	VMOVUPD 128(DI)(R12*1), Z2
	VMOVUPD 192(DI)(R12*1), Z3
	VADDPD (SI)(R12*1), Z0, Z0
	VADDPD 64(SI)(R12*1), Z1, Z1
	VADDPD 128(SI)(R12*1), Z2, Z2
	VADDPD 192(SI)(R12*1), Z3, Z3
	VMOVUPD Z0, (DI)(R12*1)
	VMOVUPD Z1, 64(DI)(R12*1)
	VMOVUPD Z2, 128(DI)(R12*1)
	VMOVUPD Z3, 192(DI)(R12*1)
	ADDQ $256, R12
	SUBQ $32, CX
	JMP  add32

add8:
	TESTQ CX, CX
	JZ    addDone
	VMOVUPD (DI)(R12*1), Z0
	VADDPD (SI)(R12*1), Z0, Z0
	VMOVUPD Z0, (DI)(R12*1)
	ADDQ $64, R12
	SUBQ $8, CX
	JMP  add8

addDone:
	VZEROUPPER
	RET

// func vecScale(dst *float64, s float64, n int)
//
// dst[0:n] *= s, n a positive multiple of 8 — one correctly rounded
// multiply per element, as the scalar loop.
TEXT ·vecScale(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	VBROADCASTSD s+8(FP), Z4
	MOVQ n+16(FP), CX
	XORQ R12, R12

scale32:
	CMPQ CX, $32
	JLT  scale8
	VMULPD (DI)(R12*1), Z4, Z0
	VMULPD 64(DI)(R12*1), Z4, Z1
	VMULPD 128(DI)(R12*1), Z4, Z2
	VMULPD 192(DI)(R12*1), Z4, Z3
	VMOVUPD Z0, (DI)(R12*1)
	VMOVUPD Z1, 64(DI)(R12*1)
	VMOVUPD Z2, 128(DI)(R12*1)
	VMOVUPD Z3, 192(DI)(R12*1)
	ADDQ $256, R12
	SUBQ $32, CX
	JMP  scale32

scale8:
	TESTQ CX, CX
	JZ    scaleDone
	VMULPD (DI)(R12*1), Z4, Z0
	VMOVUPD Z0, (DI)(R12*1)
	ADDQ $64, R12
	SUBQ $8, CX
	JMP  scale8

scaleDone:
	VZEROUPPER
	RET

// func vecAllZero(src *float64, n int) bool
//
// Reports whether all n elements at src have the bits of +0 (OR of every
// quadword is zero), n a positive multiple of 8.
TEXT ·vecAllZero(SB), NOSPLIT, $0-17
	MOVQ src+0(FP), SI
	MOVQ n+8(FP), CX
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	XORQ R12, R12

or32:
	CMPQ CX, $32
	JLT  or8
	VPORQ (SI)(R12*1), Z0, Z0
	VPORQ 64(SI)(R12*1), Z1, Z1
	VPORQ 128(SI)(R12*1), Z0, Z0
	VPORQ 192(SI)(R12*1), Z1, Z1
	ADDQ $256, R12
	SUBQ $32, CX
	JMP  or32

or8:
	TESTQ CX, CX
	JZ    orDone
	VPORQ (SI)(R12*1), Z0, Z0
	ADDQ $64, R12
	SUBQ $8, CX
	JMP  or8

orDone:
	VPORQ Z1, Z0, Z0
	VPTESTMQ Z0, Z0, K1 // K1 bit i = lane i has a set bit
	KMOVW K1, AX
	TESTL AX, AX
	SETEQ ret+16(FP)
	VZEROUPPER
	RET

// func tanhGradCols(dst, grad, y *float64, n int)
//
// dst[0:n] += grad * (1 - y*y), n a positive multiple of 8 — the fused tanh
// backward. Per element the op order is mul(y,y), sub(1,·), mul(grad,·),
// add(dst,·): exactly the historical ApplyInto + MulElemInto + AddInPlace
// sequence, each correctly rounded, so lanes match the scalar loop bitwise.
TEXT ·tanhGradCols(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ y+16(FP), DX
	MOVQ n+24(FP), CX
	MOVQ $0x3FF0000000000000, AX // 1.0
	VPBROADCASTQ AX, Z9
	XORQ R12, R12

tanh8:
	TESTQ CX, CX
	JZ    tanhDone
	VMOVUPD (DX)(R12*1), Z0    // y
	VMULPD Z0, Z0, Z0          // y*y
	VSUBPD Z0, Z9, Z0          // 1 - y*y
	VMULPD (SI)(R12*1), Z0, Z0 // grad * (1 - y*y)
	VADDPD (DI)(R12*1), Z0, Z0
	VMOVUPD Z0, (DI)(R12*1)
	ADDQ $64, R12
	SUBQ $8, CX
	JMP  tanh8

tanhDone:
	VZEROUPPER
	RET

// func adamCols(p, grad, m, v *float64, n int, beta1, c1, beta2, c2, bc1, bc2, lr, eps float64)
//
// Element-wise Adam, transcribing adamScalar's float op order exactly:
//
//	m' = beta1*m + c1*g          (c1 = 1-beta1)
//	v' = beta2*v + (c2*g)*g      (c2 = 1-beta2)
//	p -= (lr*(m'/bc1)) / (sqrt(v'/bc2) + eps)
//
// The gradient is consumed and cleared in the same pass: its cache lines are
// already resident from the load, and the zero stores hide under the div/sqrt
// latency, so the caller saves a separate full-gradient memset sweep.
//
// mul/add/sub/div/sqrt are all correctly rounded, so lanes == scalar loop.
TEXT ·adamCols(SB), NOSPLIT, $0-104
	MOVQ p+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ m+16(FP), R8
	MOVQ v+24(FP), R9
	MOVQ n+32(FP), CX
	VBROADCASTSD beta1+40(FP), Z10
	VBROADCASTSD c1+48(FP), Z11
	VBROADCASTSD beta2+56(FP), Z12
	VBROADCASTSD c2+64(FP), Z13
	VBROADCASTSD bc1+72(FP), Z14
	VBROADCASTSD bc2+80(FP), Z15
	VBROADCASTSD lr+88(FP), Z16
	VBROADCASTSD eps+96(FP), Z17
	VXORPD X9, X9, X9       // zero block stored back over the consumed gradient
	XORQ R12, R12

	// Two 8-lane blocks per iteration, instructions interleaved. The div →
	// sqrt → div critical path of one block (~80 cycles) far exceeds the
	// divider unit's occupancy (~60), so a second independent chain keeps
	// the divider busy through the first chain's latency stalls. Lanes stay
	// element-wise independent: order of blocks cannot change results.
adamLoop16:
	CMPQ CX, $16
	JLT  adamLoop
	VMOVUPD (SI)(R12*1), Z0    // g    lo
	VMOVUPD 64(SI)(R12*1), Z18 // g    hi
	VMOVUPD (R8)(R12*1), Z1    // m    lo
	VMOVUPD 64(R8)(R12*1), Z19 // m    hi
	VMOVUPD (R9)(R12*1), Z2    // v    lo
	VMOVUPD 64(R9)(R12*1), Z20 // v    hi
	VMOVUPD (DI)(R12*1), Z3    // p    lo
	VMOVUPD 64(DI)(R12*1), Z21 // p    hi
	VMULPD Z10, Z1, Z1         // beta1*m
	VMULPD Z10, Z19, Z19
	VMULPD Z11, Z0, Z4         // c1*g
	VMULPD Z11, Z18, Z22
	VADDPD Z4, Z1, Z1          // m'
	VADDPD Z22, Z19, Z19
	VMULPD Z12, Z2, Z2         // beta2*v
	VMULPD Z12, Z20, Z20
	VMULPD Z13, Z0, Z5         // c2*g
	VMULPD Z13, Z18, Z23
	VMULPD Z0, Z5, Z5          // (c2*g)*g
	VMULPD Z18, Z23, Z23
	VADDPD Z5, Z2, Z2          // v'
	VADDPD Z23, Z20, Z20
	VMOVUPD Z9, (SI)(R12*1)    // g consumed; clear in place
	VMOVUPD Z9, 64(SI)(R12*1)
	VMOVUPD Z1, (R8)(R12*1)
	VMOVUPD Z19, 64(R8)(R12*1)
	VMOVUPD Z2, (R9)(R12*1)
	VMOVUPD Z20, 64(R9)(R12*1)
	VDIVPD Z14, Z1, Z6         // mhat = m'/bc1
	VDIVPD Z15, Z2, Z7         // vhat = v'/bc2
	VDIVPD Z14, Z19, Z22
	VDIVPD Z15, Z20, Z23
	VSQRTPD Z7, Z7
	VSQRTPD Z23, Z23
	VADDPD Z17, Z7, Z7         // sqrt(vhat)+eps
	VADDPD Z17, Z23, Z23
	VMULPD Z6, Z16, Z6         // lr*mhat
	VMULPD Z22, Z16, Z22
	VDIVPD Z7, Z6, Z6          // step
	VDIVPD Z23, Z22, Z22
	VSUBPD Z6, Z3, Z3          // p - step
	VSUBPD Z22, Z21, Z21
	VMOVUPD Z3, (DI)(R12*1)
	VMOVUPD Z21, 64(DI)(R12*1)
	ADDQ $128, R12
	SUBQ $16, CX
	JMP  adamLoop16

adamLoop:
	TESTQ CX, CX
	JZ    adamDone
	VMOVUPD (SI)(R12*1), Z0 // g
	VMOVUPD (R8)(R12*1), Z1 // m
	VMOVUPD (R9)(R12*1), Z2 // v
	VMOVUPD (DI)(R12*1), Z3 // p
	VMULPD Z10, Z1, Z1      // beta1*m
	VMULPD Z11, Z0, Z4      // c1*g
	VADDPD Z4, Z1, Z1       // m'
	VMULPD Z12, Z2, Z2      // beta2*v
	VMULPD Z13, Z0, Z5      // c2*g
	VMULPD Z0, Z5, Z5       // (c2*g)*g
	VADDPD Z5, Z2, Z2       // v'
	VMOVUPD Z9, (SI)(R12*1) // g consumed; clear in place
	VMOVUPD Z1, (R8)(R12*1)
	VMOVUPD Z2, (R9)(R12*1)
	VDIVPD Z14, Z1, Z6      // mhat = m'/bc1
	VDIVPD Z15, Z2, Z7      // vhat = v'/bc2
	VSQRTPD Z7, Z7
	VADDPD Z17, Z7, Z7      // sqrt(vhat)+eps
	VMULPD Z6, Z16, Z6      // lr*mhat
	VDIVPD Z7, Z6, Z6       // step
	VSUBPD Z6, Z3, Z3       // p - step
	VMOVUPD Z3, (DI)(R12*1)
	ADDQ $64, R12
	SUBQ $8, CX
	JMP  adamLoop

adamDone:
	VZEROUPPER
	RET

// func gsProject(x, r *float64, rows, n int)
//
// Projects a 16-row Gram–Schmidt block against rows finished rows:
//
//	for j in [0,rows), every lane l of x:
//		d = +0; for k ascending: d += x[k*16+l] * r[j*n+k]
//		for k: x[k*16+l] -= d * r[j*n+k]
//
// x holds the block k-major, one ZMM lane per row (Z0/Z1 = lanes 0–7/8–15),
// so a broadcast of r_j[k] gives every row's next product at once; n and rows
// are positive. Per lane that is the scalar loop's `dot += ri[k]*rj[k]` from
// +0 in k order, then `ri[k] -= dot*rj[k]`: VMULPD then VADDPD/VSUBPD, never
// FMA, so every rounding is the scalar one. The update for row j and the dot
// for row j+1 share one pass over x: the dot at k only reads x[k] after row
// j's update of it, exactly the value the scalar loop reads.
TEXT ·gsProject(SB), NOSPLIT, $0-32
	MOVQ x+0(FP), DI
	MOVQ r+8(FP), SI
	MOVQ rows+16(FP), R8
	MOVQ n+24(FP), R9
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	MOVQ DI, BX
	MOVQ SI, CX
	MOVQ R9, R10

gsDot: // the dots against the first row
	VBROADCASTSD (CX), Z2
	VMULPD (BX), Z2, Z3
	VADDPD Z3, Z0, Z0
	VMULPD 64(BX), Z2, Z4
	VADDPD Z4, Z1, Z1
	ADDQ $8, CX
	ADDQ $128, BX
	DECQ R10
	JNZ  gsDot

gsRow: // Z0/Z1 = the dots against row SI
	DECQ R8
	JZ   gsLast
	LEAQ (SI)(R9*8), DX // the next row
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	MOVQ DI, BX
	MOVQ SI, CX
	MOVQ DX, AX
	MOVQ R9, R10

gsFused: // x -= d*r_j, then d' += x*r_{j+1}
	VBROADCASTSD (CX), Z2
	VMULPD Z2, Z0, Z3
	VMOVUPD (BX), Z7
	VSUBPD Z3, Z7, Z7
	VMOVUPD Z7, (BX)
	VMULPD Z2, Z1, Z4
	VMOVUPD 64(BX), Z8
	VSUBPD Z4, Z8, Z8
	VMOVUPD Z8, 64(BX)
	VBROADCASTSD (AX), Z9
	VMULPD Z9, Z7, Z3
	VADDPD Z3, Z5, Z5
	VMULPD Z9, Z8, Z4
	VADDPD Z4, Z6, Z6
	ADDQ $8, CX
	ADDQ $8, AX
	ADDQ $128, BX
	DECQ R10
	JNZ  gsFused
	VMOVAPD Z5, Z0
	VMOVAPD Z6, Z1
	MOVQ DX, SI
	JMP  gsRow

gsLast: // the last row's update alone
	MOVQ DI, BX
	MOVQ SI, CX
	MOVQ R9, R10

gsUpdate:
	VBROADCASTSD (CX), Z2
	VMULPD Z2, Z0, Z3
	VMOVUPD (BX), Z7
	VSUBPD Z3, Z7, Z7
	VMOVUPD Z7, (BX)
	VMULPD Z2, Z1, Z4
	VMOVUPD 64(BX), Z8
	VSUBPD Z4, Z8, Z8
	VMOVUPD Z8, 64(BX)
	ADDQ $8, CX
	ADDQ $128, BX
	DECQ R10
	JNZ  gsUpdate
	VZEROUPPER
	RET
