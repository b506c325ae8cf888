//go:build amd64 && !amd64.v3

#include "textflag.h"

// Constants of math/tanh.go and math/exp_amd64.s, spelled as those files
// spell them so the assembler rounds them to the same float64.
DATA tanhdata<>+0(SB)/8, $0.625
DATA tanhdata<>+8(SB)/8, $4.4014845965556527147994e+01 // 0.5*MAXLOG
DATA tanhdata<>+16(SB)/8, $-9.64399179425052238628e-1  // tanhP[0]
DATA tanhdata<>+24(SB)/8, $-9.92877231001918586564e1   // tanhP[1]
DATA tanhdata<>+32(SB)/8, $-1.61468768441708447952e3   // tanhP[2]
DATA tanhdata<>+40(SB)/8, $1.12811678491632931402e2    // tanhQ[0]
DATA tanhdata<>+48(SB)/8, $2.23548839060100448583e3    // tanhQ[1]
DATA tanhdata<>+56(SB)/8, $4.84406305325125486048e3    // tanhQ[2]
DATA tanhdata<>+64(SB)/8, $1.4426950408889634073599246810018920         // LOG2E
DATA tanhdata<>+72(SB)/8, $0.69314718055966295651160180568695068359375 // LN2U
DATA tanhdata<>+80(SB)/8, $0.28235290563031577122588448175013436025525412068e-12 // LN2L
DATA tanhdata<>+88(SB)/8, $0.0625
DATA tanhdata<>+96(SB)/8, $2.4801587301587301587e-5
DATA tanhdata<>+104(SB)/8, $1.9841269841269841270e-4
DATA tanhdata<>+112(SB)/8, $1.3888888888888888889e-3
DATA tanhdata<>+120(SB)/8, $8.3333333333333333333e-3
DATA tanhdata<>+128(SB)/8, $4.1666666666666666667e-2
DATA tanhdata<>+136(SB)/8, $1.6666666666666666667e-1
DATA tanhdata<>+144(SB)/8, $0.5
DATA tanhdata<>+152(SB)/8, $1.0
DATA tanhdata<>+160(SB)/8, $2.0
GLOBL tanhdata<>+0(SB), RODATA, $168

// func tanhCols(dst, src *float64, n int)
//
// See tanh_amd64.go for the contract. Per vector: both branches are computed
// (each is skipped when no lane of the vector needs it) and blended; lanes a
// branch does not own carry garbage through it — possibly Inf or NaN, never
// stored — and FP exceptions are masked, so nothing traps.
//
// Only AVX-512F instructions are used (integer-domain VPANDQ/VPORQ for the
// sign and abs masks, word-sized k-mask ops), matching what x86HasAVX512
// checks.
TEXT ·tanhCols(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ $0x7FFFFFFFFFFFFFFF, AX
	VPBROADCASTQ AX, Z31                  // |x| mask
	MOVQ $0x3FF, AX
	VPBROADCASTQ AX, Z9                   // exponent bias
	VBROADCASTSD tanhdata<>+0(SB), Z30    // 0.625
	VBROADCASTSD tanhdata<>+8(SB), Z29    // MAXLOG/2
	VBROADCASTSD tanhdata<>+16(SB), Z26   // P0
	VBROADCASTSD tanhdata<>+24(SB), Z25   // P1
	VBROADCASTSD tanhdata<>+32(SB), Z24   // P2
	VBROADCASTSD tanhdata<>+40(SB), Z23   // Q0
	VBROADCASTSD tanhdata<>+48(SB), Z22   // Q1
	VBROADCASTSD tanhdata<>+56(SB), Z21   // Q2
	VBROADCASTSD tanhdata<>+64(SB), Z20   // LOG2E
	VBROADCASTSD tanhdata<>+72(SB), Z19   // LN2U
	VBROADCASTSD tanhdata<>+80(SB), Z18   // LN2L
	VBROADCASTSD tanhdata<>+88(SB), Z17   // 0.0625
	VBROADCASTSD tanhdata<>+96(SB), Z16   // Horner c8
	VBROADCASTSD tanhdata<>+104(SB), Z15  // c7
	VBROADCASTSD tanhdata<>+112(SB), Z14  // c6
	VBROADCASTSD tanhdata<>+120(SB), Z13  // c5
	VBROADCASTSD tanhdata<>+128(SB), Z12  // c4
	VBROADCASTSD tanhdata<>+136(SB), Z11  // c3
	VBROADCASTSD tanhdata<>+144(SB), Z10  // 0.5
	VBROADCASTSD tanhdata<>+152(SB), Z28  // 1.0
	VBROADCASTSD tanhdata<>+160(SB), Z27  // 2.0
	VMOVAPD Z28, Z4                       // dividend and divisor of lanes
	VMOVAPD Z28, Z5                       // no branch has written yet
	MOVL $0xFF, AX
	KMOVW AX, K1                          // lanes of this vector
	XORQ R12, R12

tanhLoop:
	CMPQ CX, $8
	JGE  tanhVec
	TESTQ CX, CX
	JZ   tanhDone
	MOVL $1, AX                           // final n%8 lanes: K1 = (1<<n)-1
	SHLL CX, AX
	DECL AX
	KMOVW AX, K1
	MOVQ $8, CX

tanhVec:
	VMOVUPD.Z (SI)(R12*1), K1, Z0         // x (masked-off lanes read as +0)
	VPANDQ Z31, Z0, Z1                    // z = |x|
	VCMPPD $0x1D, Z30, Z1, K2             // K2: z >= 0.625 (ordered: NaN false)
	VCMPPD $0x1E, Z29, Z1, K3             // K3: z > MAXLOG/2
	KANDNW K2, K3, K4                     // K4: the exp lanes
	KMOVW K2, AX
	CMPL AX, $0xFF
	JEQ  tanhExp                          // no lane below 0.625: skip the rational

	// default branch: z = x + x*s*((P0*s+P1)*s+P2)/(((s+Q0)*s+Q1)*s+Q2)
	VMULPD Z0, Z0, Z2                     // s = x*x
	VMULPD Z2, Z0, Z5                     // x*s
	VMULPD Z2, Z26, Z3                    // P0*s
	VADDPD Z25, Z3, Z3
	VMULPD Z2, Z3, Z3
	VADDPD Z24, Z3, Z3                    // P(s)
	VMULPD Z3, Z5, Z5                     // dividend x*s*P(s)
	VADDPD Z23, Z2, Z4                    // s+Q0
	VMULPD Z2, Z4, Z4
	VADDPD Z22, Z4, Z4
	VMULPD Z2, Z4, Z4
	VADDPD Z21, Z4, Z4                    // divisor Q(s)

tanhExp:
	KORTESTW K4, K4
	JZ   tanhDiv                          // no lane in [0.625, MAXLOG/2]

	// s = archExp(2*z), FMA flavour
	VADDPD Z1, Z1, Z2                     // 2*z
	VMULPD Z2, Z20, Z6                    // LOG2E * x
	VCVTPD2DQ Z6, Y7                      // exponent, round to nearest even
	VCVTDQ2PD Y7, Z6
	VFNMADD231PD Z19, Z6, Z2              // x -= k*LN2U
	VFNMADD231PD Z18, Z6, Z2              // x -= k*LN2L
	VMULPD Z17, Z2, Z2                    // reduce argument
	VMOVAPD Z16, Z8                       // Taylor series, Horner
	VFMADD213PD Z15, Z2, Z8
	VFMADD213PD Z14, Z2, Z8
	VFMADD213PD Z13, Z2, Z8
	VFMADD213PD Z12, Z2, Z8
	VFMADD213PD Z11, Z2, Z8
	VFMADD213PD Z10, Z2, Z8
	VFMADD213PD Z28, Z2, Z8
	VMULPD Z8, Z2, Z2
	VADDPD Z27, Z2, Z8                    // four square-ups: y = y*(y+2)
	VMULPD Z8, Z2, Z2
	VADDPD Z27, Z2, Z8
	VMULPD Z8, Z2, Z2
	VADDPD Z27, Z2, Z8
	VMULPD Z8, Z2, Z2
	VADDPD Z27, Z2, Z8
	VFMADD213PD Z28, Z8, Z2               // ... the last fused with the +1
	VPMOVZXDQ Y7, Z7                      // fr * 2**exponent
	VPADDQ Z9, Z7, Z7
	VPSLLQ $52, Z7, Z7
	VMULPD Z7, Z2, Z2
	// z = 1 - 2/(s+1): the exp lanes divide 2 by s+1
	VADDPD Z28, Z2, Z2
	VMOVAPD Z27, K4, Z5
	VMOVAPD Z2, K4, Z4

tanhDiv:
	// One divide serves both branches (it is the throughput bound), then
	// each lane takes its own branch's last operation.
	VDIVPD Z4, Z5, Z5
	VADDPD Z5, Z0, Z6                     // default: x + quotient
	VSUBPD Z5, Z28, K4, Z6                // exp: 1 - quotient
	VPTESTNMQ Z31, Z0, K5
	VMOVAPD Z0, K5, Z6                    // x == ±0 → x
	VMOVAPD Z28, K3, Z6                   // z > MAXLOG/2 → 1
	VPANDNQ Z0, Z31, Z7                   // sign bit of x
	VPORQ Z7, Z6, K2, Z6                  // if x < 0 { z = -z } on the last two
	VMOVUPD Z6, K1, (DI)(R12*1)
	ADDQ $64, R12
	SUBQ $8, CX
	JMP  tanhLoop

tanhDone:
	VZEROUPPER
	RET
