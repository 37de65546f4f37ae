#include "textflag.h"

// AVX2+FMA kernels of the half-complex transform (see half.go for the
// math and simd_amd64.go for the Go-side checks), then the AVX-512F tier of
// the transform and the paired multiply-add, and last the AVX-512F fused
// external-product loops: avx512DigitsFold (every gadget level's digits
// and the fold in one pass) and avx512MulAccRows (all rows and outputs
// multiply-accumulated in registers). Every AVX2 loop handles four
// float64 points, or eight 32-bit words, per iteration, every AVX-512 loop
// eight float64 points; the callers pass counts that are multiples of the
// vector width. Every vector instruction is
// VEX-encoded (VMOVD, not MOVQ, into an XMM register): one legacy-SSE move
// made the digit loop 4.5× slower on a 2-vCPU Xeon.

// 4-lane sign vectors for the in-register tail butterflies.
DATA signHalf<>+0(SB)/8, $0x3ff0000000000000  // +1
DATA signHalf<>+8(SB)/8, $0x3ff0000000000000  // +1
DATA signHalf<>+16(SB)/8, $0xbff0000000000000 // -1
DATA signHalf<>+24(SB)/8, $0xbff0000000000000 // -1
GLOBL signHalf<>(SB), RODATA|NOPTR, $32

DATA signAlt<>+0(SB)/8, $0x3ff0000000000000  // +1
DATA signAlt<>+8(SB)/8, $0xbff0000000000000  // -1
DATA signAlt<>+16(SB)/8, $0x3ff0000000000000 // +1
DATA signAlt<>+24(SB)/8, $0xbff0000000000000 // -1
GLOBL signAlt<>(SB), RODATA|NOPTR, $32

// 1.5·2^52: adding it to |r| < 2^51 rounds r to the nearest integer and
// leaves round(r) mod 2^32 in the low 32 bits of the float64.
DATA roundMagic<>+0(SB)/8, $0x4338000000000000
GLOBL roundMagic<>(SB), RODATA|NOPTR, $8

// VPERMD indices gathering the low dword of each of four qwords.
DATA lowDwords<>+0(SB)/4, $0
DATA lowDwords<>+4(SB)/4, $2
DATA lowDwords<>+8(SB)/4, $4
DATA lowDwords<>+12(SB)/4, $6
DATA lowDwords<>+16(SB)/4, $0
DATA lowDwords<>+20(SB)/4, $2
DATA lowDwords<>+24(SB)/4, $4
DATA lowDwords<>+28(SB)/4, $6
GLOBL lowDwords<>(SB), RODATA|NOPTR, $32

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func avx2FoldInt(re, im *float64, src *int32, cos, sin *float64, m int)
//
// c_j = (a_j - i·a_{j+m}) · (cos_j - i·sin_j) for j < m.
TEXT ·avx2FoldInt(SB), NOSPLIT, $0-48
	MOVQ re+0(FP), DI
	MOVQ im+8(FP), SI
	MOVQ src+16(FP), R8
	MOVQ cos+24(FP), R9
	MOVQ sin+32(FP), R10
	MOVQ m+40(FP), CX
	LEAQ (R8)(CX*4), R11 // a_{j+m}
	SHRQ $2, CX
	JZ   foldDone
	XORQ AX, AX          // float64 byte offset
	XORQ BX, BX          // int32 byte offset

foldLoop:
	VCVTDQ2PD    (R8)(BX*1), Y0  // a
	VCVTDQ2PD    (R11)(BX*1), Y1 // b
	VMOVUPD      (R9)(AX*1), Y4  // cos
	VMOVUPD      (R10)(AX*1), Y5 // sin
	VMULPD       Y5, Y1, Y2
	VFMSUB231PD  Y4, Y0, Y2      // re = a·cos - b·sin
	VMULPD       Y4, Y1, Y3
	VFNMSUB231PD Y5, Y0, Y3      // im = -a·sin - b·cos
	VMOVUPD      Y2, (DI)(AX*1)
	VMOVUPD      Y3, (SI)(AX*1)
	ADDQ         $32, AX
	ADDQ         $16, BX
	DECQ         CX
	JNZ          foldLoop

foldDone:
	VZEROUPPER
	RET

// func avx2FoldTorus(re, im *float64, src *uint32, cos, sin *float64, m int)
//
// Torus coefficients fold as signed integers: the same bits as avx2FoldInt.
TEXT ·avx2FoldTorus(SB), NOSPLIT, $0-48
	JMP ·avx2FoldInt(SB)

// func avx2FwdStage(re, im *float64, blocks, q int, tw *float64)
//
// One forward radix-4 pass with quarter q >= 4 over blocks of 4q points.
// tw is the stage's vecTw: per group of four j, [w1r w1i w2r w2i w3r w3i].
TEXT ·avx2FwdStage(SB), NOSPLIT, $0-40
	MOVQ re+0(FP), DI
	MOVQ im+8(FP), SI
	MOVQ blocks+16(FP), CX
	MOVQ q+24(FP), DX
	MOVQ tw+32(FP), R8
	MOVQ DX, R9
	SHRQ $2, R9             // groups per block
	SHLQ $3, DX             // q in bytes
	LEAQ (DX)(DX*2), BX     // 3q in bytes
	TESTQ CX, CX
	JZ   fwdDone

fwdBlock:
	MOVQ R8, R10
	MOVQ R9, R11

fwdGroup:
	VMOVUPD (DI), Y0
	VMOVUPD (SI), Y1
	VMOVUPD (DI)(DX*1), Y2
	VMOVUPD (SI)(DX*1), Y3
	VMOVUPD (DI)(DX*2), Y4
	VMOVUPD (SI)(DX*2), Y5
	VMOVUPD (DI)(BX*1), Y6
	VMOVUPD (SI)(BX*1), Y7
	VADDPD  Y4, Y0, Y8      // a = x0 + x2
	VSUBPD  Y4, Y0, Y0      // b = x0 - x2
	VADDPD  Y5, Y1, Y9
	VSUBPD  Y5, Y1, Y1
	VADDPD  Y6, Y2, Y10     // c = x1 + x3
	VSUBPD  Y6, Y2, Y2      // d = x1 - x3
	VADDPD  Y7, Y3, Y11
	VSUBPD  Y7, Y3, Y3
	VADDPD  Y10, Y8, Y4     // y0 = a + c
	VADDPD  Y11, Y9, Y5
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, (SI)
	VSUBPD  Y10, Y8, Y8     // t2 = a - c
	VSUBPD  Y11, Y9, Y9
	VADDPD  Y3, Y0, Y10     // t1 = b - i·d
	VSUBPD  Y2, Y1, Y11
	VSUBPD  Y3, Y0, Y0      // t3 = b + i·d
	VADDPD  Y2, Y1, Y1

	// y1 = t1·w1
	VMULPD      32(R10), Y11, Y12
	VFMSUB231PD (R10), Y10, Y12
	VMULPD      32(R10), Y10, Y13
	VFMADD231PD (R10), Y11, Y13
	VMOVUPD     Y12, (DI)(DX*1)
	VMOVUPD     Y13, (SI)(DX*1)

	// y2 = t2·w2
	VMULPD      96(R10), Y9, Y12
	VFMSUB231PD 64(R10), Y8, Y12
	VMULPD      96(R10), Y8, Y13
	VFMADD231PD 64(R10), Y9, Y13
	VMOVUPD     Y12, (DI)(DX*2)
	VMOVUPD     Y13, (SI)(DX*2)

	// y3 = t3·w3
	VMULPD      160(R10), Y1, Y12
	VFMSUB231PD 128(R10), Y0, Y12
	VMULPD      160(R10), Y0, Y13
	VFMADD231PD 128(R10), Y1, Y13
	VMOVUPD     Y12, (DI)(BX*1)
	VMOVUPD     Y13, (SI)(BX*1)

	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $192, R10
	DECQ R11
	JNZ  fwdGroup

	ADDQ BX, DI             // skip the block's other three quarters
	ADDQ BX, SI
	DECQ CX
	JNZ  fwdBlock

fwdDone:
	VZEROUPPER
	RET

// func avx2InvStage(re, im *float64, blocks, q int, tw *float64)
//
// Inverse of avx2FwdStage (up to a factor of 4), conjugated twiddles.
TEXT ·avx2InvStage(SB), NOSPLIT, $0-40
	MOVQ re+0(FP), DI
	MOVQ im+8(FP), SI
	MOVQ blocks+16(FP), CX
	MOVQ q+24(FP), DX
	MOVQ tw+32(FP), R8
	MOVQ DX, R9
	SHRQ $2, R9
	SHLQ $3, DX
	LEAQ (DX)(DX*2), BX
	TESTQ CX, CX
	JZ   invDone

invBlock:
	MOVQ R8, R10
	MOVQ R9, R11

invGroup:
	VMOVUPD (DI), Y0
	VMOVUPD (SI), Y1
	VMOVUPD (DI)(DX*1), Y2
	VMOVUPD (SI)(DX*1), Y3
	VMOVUPD (DI)(DX*2), Y4
	VMOVUPD (SI)(DX*2), Y5
	VMOVUPD (DI)(BX*1), Y6
	VMOVUPD (SI)(BX*1), Y7

	// z1 = y1·conj(w1)
	VMULPD      32(R10), Y3, Y8
	VFMADD231PD (R10), Y2, Y8
	VMULPD      32(R10), Y2, Y9
	VFMSUB231PD (R10), Y3, Y9

	// z2 = y2·conj(w2)
	VMULPD      96(R10), Y5, Y2
	VFMADD231PD 64(R10), Y4, Y2
	VMULPD      96(R10), Y4, Y3
	VFMSUB231PD 64(R10), Y5, Y3

	// z3 = y3·conj(w3)
	VMULPD      160(R10), Y7, Y4
	VFMADD231PD 128(R10), Y6, Y4
	VMULPD      160(R10), Y6, Y5
	VFMSUB231PD 128(R10), Y7, Y5

	VADDPD Y2, Y0, Y6       // a = y0 + z2
	VADDPD Y3, Y1, Y7
	VSUBPD Y2, Y0, Y0       // b = y0 - z2
	VSUBPD Y3, Y1, Y1
	VADDPD Y4, Y8, Y2       // c = z1 + z3
	VADDPD Y5, Y9, Y3
	VSUBPD Y4, Y8, Y8       // e = z1 - z3; d = i·e
	VSUBPD Y5, Y9, Y9

	VADDPD  Y2, Y6, Y10     // a + c
	VADDPD  Y3, Y7, Y11
	VMOVUPD Y10, (DI)
	VMOVUPD Y11, (SI)
	VSUBPD  Y2, Y6, Y10     // a - c
	VSUBPD  Y3, Y7, Y11
	VMOVUPD Y10, (DI)(DX*2)
	VMOVUPD Y11, (SI)(DX*2)
	VSUBPD  Y9, Y0, Y10     // b + d
	VADDPD  Y8, Y1, Y11
	VMOVUPD Y10, (DI)(DX*1)
	VMOVUPD Y11, (SI)(DX*1)
	VADDPD  Y9, Y0, Y10     // b - d
	VSUBPD  Y8, Y1, Y11
	VMOVUPD Y10, (DI)(BX*1)
	VMOVUPD Y11, (SI)(BX*1)

	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $192, R10
	DECQ R11
	JNZ  invGroup

	ADDQ BX, DI
	ADDQ BX, SI
	DECQ CX
	JNZ  invBlock

invDone:
	VZEROUPPER
	RET

// func avx2FwdTail(re, im *float64, blocks int, tw *float64)
//
// The q = 2 radix-4 stage and the radix-2 stage fused on each 8-point
// block, in registers. Each pair x_r = x[2r..2r+1] is loaded into both
// 128-bit halves, so the radix-4 butterfly needs no cross-lane shuffle:
// U = [a + c | a - c] holds (y0, y2) and V = [b - i·d | b + i·d] holds
// (y1, y3), for j = 0, 1 in each half. tw is tailTw. The radix-2 pass
// pairs adjacent lanes, and the halves are stored straight to their
// output positions.
TEXT ·avx2FwdTail(SB), NOSPLIT, $0-32
	MOVQ    re+0(FP), DI
	MOVQ    im+8(FP), SI
	MOVQ    blocks+16(FP), CX
	MOVQ    tw+24(FP), R8
	VMOVUPD (R8), Y10        // U twiddles
	VMOVUPD 32(R8), Y11
	VMOVUPD 64(R8), Y12      // V twiddles
	VMOVUPD 96(R8), Y13
	VMOVUPD signAlt<>(SB), Y14
	VMOVUPD signHalf<>(SB), Y15
	TESTQ   CX, CX
	JZ      fwdTailDone

fwdTailLoop:
	VBROADCASTF128 (DI), Y0
	VBROADCASTF128 16(DI), Y1
	VBROADCASTF128 32(DI), Y2
	VBROADCASTF128 48(DI), Y3
	VBROADCASTF128 (SI), Y4
	VBROADCASTF128 16(SI), Y5
	VBROADCASTF128 32(SI), Y6
	VBROADCASTF128 48(SI), Y7
	VADDPD         Y2, Y0, Y8  // a = x0 + x2
	VSUBPD         Y2, Y0, Y0  // b = x0 - x2
	VADDPD         Y3, Y1, Y9  // c = x1 + x3
	VSUBPD         Y3, Y1, Y1  // d = x1 - x3
	VADDPD         Y6, Y4, Y2
	VSUBPD         Y6, Y4, Y4
	VADDPD         Y7, Y5, Y3
	VSUBPD         Y7, Y5, Y5

	VFMADD231PD  Y15, Y9, Y8 // U = a ± c
	VFMADD231PD  Y15, Y3, Y2
	VFMADD231PD  Y15, Y5, Y0 // V = b ∓ i·d
	VFNMADD231PD Y15, Y1, Y4

	// U·tU and V·tV
	VMULPD      Y11, Y2, Y1
	VFMSUB231PD Y10, Y8, Y1
	VMULPD      Y11, Y8, Y3
	VFMADD231PD Y10, Y2, Y3
	VMULPD      Y13, Y4, Y5
	VFMSUB231PD Y12, Y0, Y5
	VMULPD      Y13, Y0, Y6
	VFMADD231PD Y12, Y4, Y6

	// radix-2 on adjacent lanes: x·[1 -1 1 -1] + swap(x)
	VPERMILPD   $5, Y1, Y7
	VFMADD231PD Y14, Y1, Y7
	VPERMILPD   $5, Y3, Y8
	VFMADD231PD Y14, Y3, Y8
	VPERMILPD   $5, Y5, Y9
	VFMADD231PD Y14, Y5, Y9
	VPERMILPD   $5, Y6, Y0
	VFMADD231PD Y14, Y6, Y0

	// x[0..1] = y0, x[2..3] = y1, x[4..5] = y2, x[6..7] = y3
	VMOVUPD      X7, (DI)
	VMOVUPD      X9, 16(DI)
	VEXTRACTF128 $1, Y7, 32(DI)
	VEXTRACTF128 $1, Y9, 48(DI)
	VMOVUPD      X8, (SI)
	VMOVUPD      X0, 16(SI)
	VEXTRACTF128 $1, Y8, 32(SI)
	VEXTRACTF128 $1, Y0, 48(SI)

	ADDQ $64, DI
	ADDQ $64, SI
	DECQ CX
	JNZ  fwdTailLoop

fwdTailDone:
	VZEROUPPER
	RET

// func avx2InvTail(dre, dim, sre, sim *float64, blocks int, tw *float64)
//
// Inverse of avx2FwdTail, reading the spectrum from s and writing d, so
// the copy into the inverse's scratch rides along with its first pass.
// Loads gather U = x[0 1 | 4 5] and V = x[2 3 | 6 7] without shuffles.
TEXT ·avx2InvTail(SB), NOSPLIT, $0-48
	MOVQ    dre+0(FP), DI
	MOVQ    dim+8(FP), SI
	MOVQ    sre+16(FP), R9
	MOVQ    sim+24(FP), R10
	MOVQ    blocks+32(FP), CX
	MOVQ    tw+40(FP), R8
	VMOVUPD (R8), Y10
	VMOVUPD 32(R8), Y11
	VMOVUPD 64(R8), Y12
	VMOVUPD 96(R8), Y13
	VMOVUPD signAlt<>(SB), Y14
	VMOVUPD signHalf<>(SB), Y15
	TESTQ   CX, CX
	JZ      invTailDone

invTailLoop:
	VMOVUPD     (R9), X0
	VINSERTF128 $1, 32(R9), Y0, Y0
	VMOVUPD     16(R9), X1
	VINSERTF128 $1, 48(R9), Y1, Y1
	VMOVUPD     (R10), X2
	VINSERTF128 $1, 32(R10), Y2, Y2
	VMOVUPD     16(R10), X3
	VINSERTF128 $1, 48(R10), Y3, Y3

	// radix-2 on adjacent lanes
	VPERMILPD   $5, Y0, Y4
	VFMADD231PD Y14, Y0, Y4
	VPERMILPD   $5, Y2, Y5
	VFMADD231PD Y14, Y2, Y5
	VPERMILPD   $5, Y1, Y6
	VFMADD231PD Y14, Y1, Y6
	VPERMILPD   $5, Y3, Y7
	VFMADD231PD Y14, Y3, Y7

	// U·conj(tU) = [y0 | z2] and V·conj(tV) = [z1 | z3]
	VMULPD      Y11, Y5, Y0
	VFMADD231PD Y10, Y4, Y0
	VMULPD      Y11, Y4, Y2
	VFMSUB231PD Y10, Y5, Y2
	VMULPD      Y13, Y7, Y1
	VFMADD231PD Y12, Y6, Y1
	VMULPD      Y13, Y6, Y3
	VFMSUB231PD Y12, Y7, Y3

	// P = [a | b] = [y0 + z2 | y0 - z2], E = [c | e] = [z1 + z3 | z1 - z3]
	VPERM2F128  $0x01, Y0, Y0, Y4
	VFMADD231PD Y15, Y0, Y4
	VPERM2F128  $0x01, Y2, Y2, Y5
	VFMADD231PD Y15, Y2, Y5
	VPERM2F128  $0x01, Y1, Y1, Y6
	VFMADD231PD Y15, Y1, Y6
	VPERM2F128  $0x01, Y3, Y3, Y7
	VFMADD231PD Y15, Y3, Y7

	// Q = [c | d] with d = i·e: re [c_r | -e_i], im [c_i | e_r]
	VBLENDPD $0x0c, Y7, Y6, Y0
	VBLENDPD $0x0c, Y6, Y7, Y1

	// x[0..3] = P + Q, x[4..7] = P - Q
	VMOVAPD      Y4, Y2
	VFMADD231PD  Y15, Y0, Y4
	VFNMADD231PD Y15, Y0, Y2
	VADDPD       Y1, Y5, Y3
	VSUBPD       Y1, Y5, Y5
	VMOVUPD      Y4, (DI)
	VMOVUPD      Y2, 32(DI)
	VMOVUPD      Y3, (SI)
	VMOVUPD      Y5, 32(SI)

	ADDQ $64, DI
	ADDQ $64, SI
	ADDQ $64, R9
	ADDQ $64, R10
	DECQ CX
	JNZ  invTailLoop

invTailDone:
	VZEROUPPER
	RET

// func avx2UntwistAdd(dst *uint32, re, im, cos, sin *float64, m int, scale float64)
//
// r_j = scale·c_j·(cos_j + i·sin_j); dst[j] += round(Re r_j),
// dst[j+m] -= round(Im r_j), rounding half to even, wrapping mod 2^32.
TEXT ·avx2UntwistAdd(SB), NOSPLIT, $0-56
	MOVQ         dst+0(FP), DI
	MOVQ         re+8(FP), SI
	MOVQ         im+16(FP), DX
	MOVQ         cos+24(FP), R9
	MOVQ         sin+32(FP), R10
	MOVQ         m+40(FP), CX
	VBROADCASTSD scale+48(FP), Y15
	VBROADCASTSD roundMagic<>(SB), Y14
	VMOVDQU      lowDwords<>(SB), Y13
	LEAQ         (DI)(CX*4), R11
	SHRQ         $2, CX
	JZ           untwistDone
	XORQ         AX, AX // float64 byte offset
	XORQ         BX, BX // uint32 byte offset

untwistLoop:
	VMULPD      (SI)(AX*1), Y15, Y0 // c·scale
	VMULPD      (DX)(AX*1), Y15, Y1
	VMULPD      (R10)(AX*1), Y1, Y2
	VFMSUB231PD (R9)(AX*1), Y0, Y2  // Re = cr·cos - ci·sin
	VMULPD      (R10)(AX*1), Y0, Y3
	VFMADD231PD (R9)(AX*1), Y1, Y3  // Im = ci·cos + cr·sin
	VADDPD      Y14, Y2, Y2
	VADDPD      Y14, Y3, Y3
	VPERMD      Y2, Y13, Y2
	VPERMD      Y3, Y13, Y3
	VPADDD      (DI)(BX*1), X2, X2
	VMOVDQU     X2, (DI)(BX*1)
	VMOVDQU     (R11)(BX*1), X4
	VPSUBD      X3, X4, X4
	VMOVDQU     X4, (R11)(BX*1)
	ADDQ        $32, AX
	ADDQ        $16, BX
	DECQ        CX
	JNZ         untwistLoop

untwistDone:
	VZEROUPPER
	RET

// func avx2MulAcc(fr, fi, ar, ai, br, bi *float64, n int)
TEXT ·avx2MulAcc(SB), NOSPLIT, $0-56
	MOVQ fr+0(FP), DI
	MOVQ fi+8(FP), SI
	MOVQ ar+16(FP), R8
	MOVQ ai+24(FP), R9
	MOVQ br+32(FP), R10
	MOVQ bi+40(FP), R11
	MOVQ n+48(FP), CX
	SHRQ $2, CX
	JZ   mulAccDone
	XORQ AX, AX

mulAccLoop:
	VMOVUPD      (DI)(AX*1), Y0
	VMOVUPD      (SI)(AX*1), Y1
	VMOVUPD      (R8)(AX*1), Y2
	VMOVUPD      (R9)(AX*1), Y3
	VMOVUPD      (R10)(AX*1), Y4
	VMOVUPD      (R11)(AX*1), Y5
	VFMADD231PD  Y4, Y2, Y0 // fr += ar·br
	VFNMADD231PD Y5, Y3, Y0 // fr -= ai·bi
	VFMADD231PD  Y5, Y2, Y1 // fi += ar·bi
	VFMADD231PD  Y4, Y3, Y1 // fi += ai·br
	VMOVUPD      Y0, (DI)(AX*1)
	VMOVUPD      Y1, (SI)(AX*1)
	ADDQ         $32, AX
	DECQ         CX
	JNZ          mulAccLoop

mulAccDone:
	VZEROUPPER
	RET

// func avx2MulAccPair(fr, fi, a1r, a1i, b1r, b1i, a2r, a2i, b2r, b2i *float64, n int)
TEXT ·avx2MulAccPair(SB), NOSPLIT, $0-88
	MOVQ fr+0(FP), DI
	MOVQ fi+8(FP), SI
	MOVQ a1r+16(FP), R8
	MOVQ a1i+24(FP), R9
	MOVQ b1r+32(FP), R10
	MOVQ b1i+40(FP), R11
	MOVQ a2r+48(FP), R12
	MOVQ a2i+56(FP), R13
	MOVQ b2r+64(FP), R14
	MOVQ b2i+72(FP), BX
	MOVQ n+80(FP), CX
	SHRQ $2, CX
	JZ   mulAccPairDone
	XORQ AX, AX

mulAccPairLoop:
	VMOVUPD      (DI)(AX*1), Y0
	VMOVUPD      (SI)(AX*1), Y1
	VMOVUPD      (R8)(AX*1), Y2
	VMOVUPD      (R9)(AX*1), Y3
	VMOVUPD      (R10)(AX*1), Y4
	VMOVUPD      (R11)(AX*1), Y5
	VMOVUPD      (R12)(AX*1), Y6
	VMOVUPD      (R13)(AX*1), Y7
	VMOVUPD      (R14)(AX*1), Y8
	VMOVUPD      (BX)(AX*1), Y9
	VFMADD231PD  Y4, Y2, Y0 // fr += a1r·b1r
	VFNMADD231PD Y5, Y3, Y0 // fr -= a1i·b1i
	VFMADD231PD  Y5, Y2, Y1 // fi += a1r·b1i
	VFMADD231PD  Y4, Y3, Y1 // fi += a1i·b1r
	VFMADD231PD  Y8, Y6, Y0 // fr += a2r·b2r
	VFNMADD231PD Y9, Y7, Y0 // fr -= a2i·b2i
	VFMADD231PD  Y9, Y6, Y1 // fi += a2r·b2i
	VFMADD231PD  Y8, Y7, Y1 // fi += a2i·b2r
	VMOVUPD      Y0, (DI)(AX*1)
	VMOVUPD      Y1, (SI)(AX*1)
	ADDQ         $32, AX
	DECQ         CX
	JNZ          mulAccPairLoop

mulAccPairDone:
	VZEROUPPER
	RET

// func avx2Digit(dst *int32, src *uint32, n int, offset, mask uint32, half int32, shift uint32)
//
// dst[i] = ((src[i] + offset) >> shift) & mask - half.
TEXT ·avx2Digit(SB), NOSPLIT, $0-40
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	MOVL         offset+24(FP), AX
	VMOVD        AX, X1
	VPBROADCASTD X1, Y1
	MOVL         mask+28(FP), AX
	VMOVD        AX, X2
	VPBROADCASTD X2, Y2
	MOVL         half+32(FP), AX
	VMOVD        AX, X3
	VPBROADCASTD X3, Y3
	MOVL         shift+36(FP), AX
	VMOVD        AX, X4
	SHRQ         $3, CX
	JZ           digitDone
	XORQ         AX, AX

digitLoop:
	VMOVDQU (SI)(AX*1), Y0
	VPADDD  Y1, Y0, Y0
	VPSRLD  X4, Y0, Y0
	VPAND   Y2, Y0, Y0
	VPSUBD  Y3, Y0, Y0
	VMOVDQU Y0, (DI)(AX*1)
	ADDQ    $32, AX
	DECQ    CX
	JNZ     digitLoop

digitDone:
	VZEROUPPER
	RET

// func avx2Sub(dst, src *uint32, n int)
TEXT ·avx2Sub(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	SHRQ $3, CX
	JZ   subDone
	XORQ AX, AX

subLoop:
	VMOVDQU (DI)(AX*1), Y0
	VPSUBD  (SI)(AX*1), Y0, Y0
	VMOVDQU Y0, (DI)(AX*1)
	ADDQ    $32, AX
	DECQ    CX
	JNZ     subLoop

subDone:
	VZEROUPPER
	RET

// func avx2RotSub(dst, x, y *uint32, n int, sign uint32)
//
// dst[i] = sign·x[i] - y[i] with sign = ±1 (as 1 or 0xFFFFFFFF): VPSIGND
// negates each x lane by the sign lane, wrapping mod 2^32 as Go does.
TEXT ·avx2RotSub(SB), NOSPLIT, $0-36
	MOVQ         dst+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         y+16(FP), DX
	MOVQ         n+24(FP), CX
	MOVL         sign+32(FP), AX
	VMOVD        AX, X3
	VPBROADCASTD X3, Y3
	SHRQ         $3, CX
	JZ           rotSubDone
	XORQ         AX, AX

rotSubLoop:
	VMOVDQU (SI)(AX*1), Y0
	VPSIGND Y3, Y0, Y0
	VPSUBD  (DX)(AX*1), Y0, Y0
	VMOVDQU Y0, (DI)(AX*1)
	ADDQ    $32, AX
	DECQ    CX
	JNZ     rotSubLoop

rotSubDone:
	VZEROUPPER
	RET

// func avx2SwitchRows(acc, key, rows, ends *uint32, segs, members, stride int)
//
// Segment s subtracts the key rows at word offsets rows[ends[s-1]:ends[s]]
// from accumulator s mod members (stride words each, stride a multiple of
// 8). Each segment walks its accumulator in column chunks held in
// registers — as many chunks of 8 vectors as fit, then at most one each of
// 4, 2 and 1 — so the accumulator is loaded and stored once per chunk
// rather than once per row.
TEXT ·avx2SwitchRows(SB), NOSPLIT, $24-56
	MOVQ  acc+0(FP), R13
	MOVQ  key+8(FP), SI
	MOVQ  rows+16(FP), R8
	MOVQ  ends+24(FP), R9
	MOVQ  segs+32(FP), R10
	MOVQ  members+40(FP), R11
	MOVQ  stride+48(FP), R12
	SHLQ  $2, R12               // stride in bytes
	IMULQ R12, R11
	ADDQ  R13, R11
	MOVQ  R13, accBase-8(SP)
	MOVQ  R11, accEnd-16(SP)    // past the last accumulator
	LEAQ  (R9)(R10*4), R10
	MOVQ  R10, endsEnd-24(SP)   // past the last segment end
	XORQ  BX, BX                // first row of the segment
	CMPQ  R9, R10
	JEQ   switchDone

switchSeg:
	MOVL (R9), DX               // past the last row of the segment
	XORQ CX, CX                 // chunk offset in bytes
	CMPQ BX, DX
	JEQ  switchNextSeg

switchPass8:
	MOVQ    R12, AX
	SUBQ    CX, AX
	CMPQ    AX, $256
	JLT     switchPass4
	VMOVDQU (R13)(CX*1), Y0
	VMOVDQU 32(R13)(CX*1), Y1
	VMOVDQU 64(R13)(CX*1), Y2
	VMOVDQU 96(R13)(CX*1), Y3
	VMOVDQU 128(R13)(CX*1), Y4
	VMOVDQU 160(R13)(CX*1), Y5
	VMOVDQU 192(R13)(CX*1), Y6
	VMOVDQU 224(R13)(CX*1), Y7
	LEAQ    (SI)(CX*1), AX      // the chunk's column of row 0
	MOVQ    BX, DI

switchRow8:
	MOVL   (R8)(DI*4), R10
	LEAQ   (AX)(R10*4), R10     // the row's chunk
	VPSUBD (R10), Y0, Y0
	VPSUBD 32(R10), Y1, Y1
	VPSUBD 64(R10), Y2, Y2
	VPSUBD 96(R10), Y3, Y3
	VPSUBD 128(R10), Y4, Y4
	VPSUBD 160(R10), Y5, Y5
	VPSUBD 192(R10), Y6, Y6
	VPSUBD 224(R10), Y7, Y7
	INCQ   DI
	CMPQ   DI, DX
	JNE    switchRow8
	VMOVDQU Y0, (R13)(CX*1)
	VMOVDQU Y1, 32(R13)(CX*1)
	VMOVDQU Y2, 64(R13)(CX*1)
	VMOVDQU Y3, 96(R13)(CX*1)
	VMOVDQU Y4, 128(R13)(CX*1)
	VMOVDQU Y5, 160(R13)(CX*1)
	VMOVDQU Y6, 192(R13)(CX*1)
	VMOVDQU Y7, 224(R13)(CX*1)
	ADDQ    $256, CX
	JMP     switchPass8

switchPass4:
	CMPQ    AX, $128
	JLT     switchPass2
	VMOVDQU (R13)(CX*1), Y0
	VMOVDQU 32(R13)(CX*1), Y1
	VMOVDQU 64(R13)(CX*1), Y2
	VMOVDQU 96(R13)(CX*1), Y3
	LEAQ    (SI)(CX*1), AX
	MOVQ    BX, DI

switchRow4:
	MOVL   (R8)(DI*4), R10
	LEAQ   (AX)(R10*4), R10     // the row's chunk
	VPSUBD (R10), Y0, Y0
	VPSUBD 32(R10), Y1, Y1
	VPSUBD 64(R10), Y2, Y2
	VPSUBD 96(R10), Y3, Y3
	INCQ   DI
	CMPQ   DI, DX
	JNE    switchRow4
	VMOVDQU Y0, (R13)(CX*1)
	VMOVDQU Y1, 32(R13)(CX*1)
	VMOVDQU Y2, 64(R13)(CX*1)
	VMOVDQU Y3, 96(R13)(CX*1)
	ADDQ    $128, CX

switchPass2:
	MOVQ    R12, AX
	SUBQ    CX, AX
	CMPQ    AX, $64
	JLT     switchPass1
	VMOVDQU (R13)(CX*1), Y0
	VMOVDQU 32(R13)(CX*1), Y1
	LEAQ    (SI)(CX*1), AX
	MOVQ    BX, DI

switchRow2:
	MOVL   (R8)(DI*4), R10
	LEAQ   (AX)(R10*4), R10     // the row's chunk
	VPSUBD (R10), Y0, Y0
	VPSUBD 32(R10), Y1, Y1
	INCQ   DI
	CMPQ   DI, DX
	JNE    switchRow2
	VMOVDQU Y0, (R13)(CX*1)
	VMOVDQU Y1, 32(R13)(CX*1)
	ADDQ    $64, CX

switchPass1:
	CMPQ    CX, R12
	JEQ     switchSegDone
	VMOVDQU (R13)(CX*1), Y0
	LEAQ    (SI)(CX*1), AX
	MOVQ    BX, DI

switchRow1:
	MOVL   (R8)(DI*4), R10
	LEAQ   (AX)(R10*4), R10     // the row's chunk
	VPSUBD (R10), Y0, Y0
	INCQ   DI
	CMPQ   DI, DX
	JNE    switchRow1
	VMOVDQU Y0, (R13)(CX*1)

switchSegDone:
	MOVQ DX, BX

switchNextSeg:
	ADDQ R12, R13
	CMPQ R13, accEnd-16(SP)
	JNE  switchSameRound
	MOVQ accBase-8(SP), R13

switchSameRound:
	ADDQ $4, R9
	CMPQ R9, endsEnd-24(SP)
	JNE  switchSeg

switchDone:
	VZEROUPPER
	RET

// AVX-512F tier: the transform stages, both tails, the fold, the
// untwist-add, the paired multiply-add and the fused external-product
// loops, eight points per instruction.
// Every lane runs the butterflies of the AVX2 loops above, in the same
// order and with the same FMA contractions, so the results are the AVX2
// ones bit for bit.

// 8-lane sign vectors: [+ + + + - - - -], [+ + - - - - + +] and
// [+ - + - + - + -].
DATA signHalf8<>+0(SB)/8, $0x3ff0000000000000
DATA signHalf8<>+8(SB)/8, $0x3ff0000000000000
DATA signHalf8<>+16(SB)/8, $0x3ff0000000000000
DATA signHalf8<>+24(SB)/8, $0x3ff0000000000000
DATA signHalf8<>+32(SB)/8, $0xbff0000000000000
DATA signHalf8<>+40(SB)/8, $0xbff0000000000000
DATA signHalf8<>+48(SB)/8, $0xbff0000000000000
DATA signHalf8<>+56(SB)/8, $0xbff0000000000000
GLOBL signHalf8<>(SB), RODATA|NOPTR, $64

DATA signMix8<>+0(SB)/8, $0x3ff0000000000000
DATA signMix8<>+8(SB)/8, $0x3ff0000000000000
DATA signMix8<>+16(SB)/8, $0xbff0000000000000
DATA signMix8<>+24(SB)/8, $0xbff0000000000000
DATA signMix8<>+32(SB)/8, $0xbff0000000000000
DATA signMix8<>+40(SB)/8, $0xbff0000000000000
DATA signMix8<>+48(SB)/8, $0x3ff0000000000000
DATA signMix8<>+56(SB)/8, $0x3ff0000000000000
GLOBL signMix8<>(SB), RODATA|NOPTR, $64

DATA signAlt8<>+0(SB)/8, $0x3ff0000000000000
DATA signAlt8<>+8(SB)/8, $0xbff0000000000000
DATA signAlt8<>+16(SB)/8, $0x3ff0000000000000
DATA signAlt8<>+24(SB)/8, $0xbff0000000000000
DATA signAlt8<>+32(SB)/8, $0x3ff0000000000000
DATA signAlt8<>+40(SB)/8, $0xbff0000000000000
DATA signAlt8<>+48(SB)/8, $0x3ff0000000000000
DATA signAlt8<>+56(SB)/8, $0xbff0000000000000
GLOBL signAlt8<>(SB), RODATA|NOPTR, $64

// VPERMT2PD indices over (re, im) = lanes 0-7, 8-15, gathering the 2-lane
// blocks [re₁ im₃ re₁ im₃] and [im₁ re₃ im₁ re₃].
DATA pickReIm<>+0(SB)/8, $2
DATA pickReIm<>+8(SB)/8, $3
DATA pickReIm<>+16(SB)/8, $14
DATA pickReIm<>+24(SB)/8, $15
DATA pickReIm<>+32(SB)/8, $2
DATA pickReIm<>+40(SB)/8, $3
DATA pickReIm<>+48(SB)/8, $14
DATA pickReIm<>+56(SB)/8, $15
GLOBL pickReIm<>(SB), RODATA|NOPTR, $64

DATA pickImRe<>+0(SB)/8, $10
DATA pickImRe<>+8(SB)/8, $11
DATA pickImRe<>+16(SB)/8, $6
DATA pickImRe<>+24(SB)/8, $7
DATA pickImRe<>+32(SB)/8, $10
DATA pickImRe<>+40(SB)/8, $11
DATA pickImRe<>+48(SB)/8, $6
DATA pickImRe<>+56(SB)/8, $7
GLOBL pickImRe<>(SB), RODATA|NOPTR, $64

// func avx512FoldInt(re, im *float64, src *int32, cos, sin *float64, m int)
//
// avx2FoldInt eight points at a time.
TEXT ·avx512FoldInt(SB), NOSPLIT, $0-48
	MOVQ re+0(FP), DI
	MOVQ im+8(FP), SI
	MOVQ src+16(FP), R8
	MOVQ cos+24(FP), R9
	MOVQ sin+32(FP), R10
	MOVQ m+40(FP), CX
	LEAQ (R8)(CX*4), R11 // a_{j+m}
	SHRQ $3, CX
	JZ   fold8Done
	XORQ AX, AX          // float64 byte offset
	XORQ BX, BX          // int32 byte offset

fold8Loop:
	VCVTDQ2PD    (R8)(BX*1), Z0  // a
	VCVTDQ2PD    (R11)(BX*1), Z1 // b
	VMOVUPD      (R9)(AX*1), Z4  // cos
	VMOVUPD      (R10)(AX*1), Z5 // sin
	VMULPD       Z5, Z1, Z2
	VFMSUB231PD  Z4, Z0, Z2      // re = a·cos - b·sin
	VMULPD       Z4, Z1, Z3
	VFNMSUB231PD Z5, Z0, Z3      // im = -a·sin - b·cos
	VMOVUPD      Z2, (DI)(AX*1)
	VMOVUPD      Z3, (SI)(AX*1)
	ADDQ         $64, AX
	ADDQ         $32, BX
	DECQ         CX
	JNZ          fold8Loop

fold8Done:
	VZEROUPPER
	RET

// func avx512FoldTorus(re, im *float64, src *uint32, cos, sin *float64, m int)
TEXT ·avx512FoldTorus(SB), NOSPLIT, $0-48
	JMP ·avx512FoldInt(SB)

// func avx512FwdStage(re, im *float64, blocks, q int, tw *float64)
//
// avx2FwdStage for q >= 8, eight j per group. tw is the stage's vecTw8:
// per group of eight j, [w1r w1i w2r w2i w3r w3i].
TEXT ·avx512FwdStage(SB), NOSPLIT, $0-40
	MOVQ re+0(FP), DI
	MOVQ im+8(FP), SI
	MOVQ blocks+16(FP), CX
	MOVQ q+24(FP), DX
	MOVQ tw+32(FP), R8
	MOVQ DX, R9
	SHRQ $3, R9             // groups per block
	SHLQ $3, DX             // q in bytes
	LEAQ (DX)(DX*2), BX     // 3q in bytes
	TESTQ CX, CX
	JZ   fwd8Done

fwd8Block:
	MOVQ R8, R10
	MOVQ R9, R11

fwd8Group:
	VMOVUPD (DI), Z0
	VMOVUPD (SI), Z1
	VMOVUPD (DI)(DX*1), Z2
	VMOVUPD (SI)(DX*1), Z3
	VMOVUPD (DI)(DX*2), Z4
	VMOVUPD (SI)(DX*2), Z5
	VMOVUPD (DI)(BX*1), Z6
	VMOVUPD (SI)(BX*1), Z7
	VADDPD  Z4, Z0, Z8      // a = x0 + x2
	VSUBPD  Z4, Z0, Z0      // b = x0 - x2
	VADDPD  Z5, Z1, Z9
	VSUBPD  Z5, Z1, Z1
	VADDPD  Z6, Z2, Z10     // c = x1 + x3
	VSUBPD  Z6, Z2, Z2      // d = x1 - x3
	VADDPD  Z7, Z3, Z11
	VSUBPD  Z7, Z3, Z3
	VADDPD  Z10, Z8, Z4     // y0 = a + c
	VADDPD  Z11, Z9, Z5
	VMOVUPD Z4, (DI)
	VMOVUPD Z5, (SI)
	VSUBPD  Z10, Z8, Z8     // t2 = a - c
	VSUBPD  Z11, Z9, Z9
	VADDPD  Z3, Z0, Z10     // t1 = b - i·d
	VSUBPD  Z2, Z1, Z11
	VSUBPD  Z3, Z0, Z0      // t3 = b + i·d
	VADDPD  Z2, Z1, Z1

	// y1 = t1·w1
	VMULPD      64(R10), Z11, Z12
	VFMSUB231PD (R10), Z10, Z12
	VMULPD      64(R10), Z10, Z13
	VFMADD231PD (R10), Z11, Z13
	VMOVUPD     Z12, (DI)(DX*1)
	VMOVUPD     Z13, (SI)(DX*1)

	// y2 = t2·w2
	VMULPD      192(R10), Z9, Z12
	VFMSUB231PD 128(R10), Z8, Z12
	VMULPD      192(R10), Z8, Z13
	VFMADD231PD 128(R10), Z9, Z13
	VMOVUPD     Z12, (DI)(DX*2)
	VMOVUPD     Z13, (SI)(DX*2)

	// y3 = t3·w3
	VMULPD      320(R10), Z1, Z12
	VFMSUB231PD 256(R10), Z0, Z12
	VMULPD      320(R10), Z0, Z13
	VFMADD231PD 256(R10), Z1, Z13
	VMOVUPD     Z12, (DI)(BX*1)
	VMOVUPD     Z13, (SI)(BX*1)

	ADDQ $64, DI
	ADDQ $64, SI
	ADDQ $384, R10
	DECQ R11
	JNZ  fwd8Group

	ADDQ BX, DI             // skip the block's other three quarters
	ADDQ BX, SI
	DECQ CX
	JNZ  fwd8Block

fwd8Done:
	VZEROUPPER
	RET

// func avx512InvStage(re, im *float64, blocks, q int, tw *float64)
//
// avx2InvStage for q >= 8 over vecTw8.
TEXT ·avx512InvStage(SB), NOSPLIT, $0-40
	MOVQ re+0(FP), DI
	MOVQ im+8(FP), SI
	MOVQ blocks+16(FP), CX
	MOVQ q+24(FP), DX
	MOVQ tw+32(FP), R8
	MOVQ DX, R9
	SHRQ $3, R9
	SHLQ $3, DX
	LEAQ (DX)(DX*2), BX
	TESTQ CX, CX
	JZ   inv8Done

inv8Block:
	MOVQ R8, R10
	MOVQ R9, R11

inv8Group:
	VMOVUPD (DI), Z0
	VMOVUPD (SI), Z1
	VMOVUPD (DI)(DX*1), Z2
	VMOVUPD (SI)(DX*1), Z3
	VMOVUPD (DI)(DX*2), Z4
	VMOVUPD (SI)(DX*2), Z5
	VMOVUPD (DI)(BX*1), Z6
	VMOVUPD (SI)(BX*1), Z7

	// z1 = y1·conj(w1)
	VMULPD      64(R10), Z3, Z8
	VFMADD231PD (R10), Z2, Z8
	VMULPD      64(R10), Z2, Z9
	VFMSUB231PD (R10), Z3, Z9

	// z2 = y2·conj(w2)
	VMULPD      192(R10), Z5, Z2
	VFMADD231PD 128(R10), Z4, Z2
	VMULPD      192(R10), Z4, Z3
	VFMSUB231PD 128(R10), Z5, Z3

	// z3 = y3·conj(w3)
	VMULPD      320(R10), Z7, Z4
	VFMADD231PD 256(R10), Z6, Z4
	VMULPD      320(R10), Z6, Z5
	VFMSUB231PD 256(R10), Z7, Z5

	VADDPD Z2, Z0, Z6       // a = y0 + z2
	VADDPD Z3, Z1, Z7
	VSUBPD Z2, Z0, Z0       // b = y0 - z2
	VSUBPD Z3, Z1, Z1
	VADDPD Z4, Z8, Z2       // c = z1 + z3
	VADDPD Z5, Z9, Z3
	VSUBPD Z4, Z8, Z8       // e = z1 - z3; d = i·e
	VSUBPD Z5, Z9, Z9

	VADDPD  Z2, Z6, Z10     // a + c
	VADDPD  Z3, Z7, Z11
	VMOVUPD Z10, (DI)
	VMOVUPD Z11, (SI)
	VSUBPD  Z2, Z6, Z10     // a - c
	VSUBPD  Z3, Z7, Z11
	VMOVUPD Z10, (DI)(DX*2)
	VMOVUPD Z11, (SI)(DX*2)
	VSUBPD  Z9, Z0, Z10     // b + d
	VADDPD  Z8, Z1, Z11
	VMOVUPD Z10, (DI)(DX*1)
	VMOVUPD Z11, (SI)(DX*1)
	VADDPD  Z9, Z0, Z10     // b - d
	VSUBPD  Z8, Z1, Z11
	VMOVUPD Z10, (DI)(BX*1)
	VMOVUPD Z11, (SI)(BX*1)

	ADDQ $64, DI
	ADDQ $64, SI
	ADDQ $384, R10
	DECQ R11
	JNZ  inv8Group

	ADDQ BX, DI
	ADDQ BX, SI
	DECQ CX
	JNZ  inv8Block

inv8Done:
	VZEROUPPER
	RET

// func avx512FwdTail(re, im *float64, blocks int, tw *float64)
//
// avx2FwdTail on one 8-point block per re/im register pair, in 2-lane
// (j = 0, 1) blocks. Two 256-bit broadcast loads put x[0..3] and x[4..7]
// in both halves, so P = [a c | b d] = x[0..3] ± x[4..7] takes one FMA;
// the blocks [a b a b] and [c d_i c d_i] (re) or [c d_r c d_r] (im) are
// then gathered across re and im, and Q = [y0 y1 y2 y3] comes out in
// store order. tw is tailTw8; the radix-2 pass pairs adjacent lanes, as
// in avx2FwdTail.
TEXT ·avx512FwdTail(SB), NOSPLIT, $0-32
	MOVQ      re+0(FP), DI
	MOVQ      im+8(FP), SI
	MOVQ      blocks+16(FP), CX
	MOVQ      tw+24(FP), R8
	VMOVUPD   (R8), Z20       // twiddles, re
	VMOVUPD   64(R8), Z21     // twiddles, im
	VMOVUPD   signHalf8<>(SB), Z22
	VMOVUPD   signMix8<>(SB), Z23
	VMOVUPD   signAlt8<>(SB), Z24
	VMOVDQU64 pickReIm<>(SB), Z25
	VMOVDQU64 pickImRe<>(SB), Z26
	TESTQ     CX, CX
	JZ        fwdTail8Done

fwdTail8Loop:
	VBROADCASTF64X4 (DI), Z0    // x[0..3] in both halves
	VBROADCASTF64X4 32(DI), Z1  // x[4..7]
	VBROADCASTF64X4 (SI), Z2
	VBROADCASTF64X4 32(SI), Z3
	VFMADD231PD     Z22, Z1, Z0 // [a c | b d] = x[0..3] ± x[4..7]
	VFMADD231PD     Z22, Z3, Z2

	VSHUFF64X2  $0x88, Z0, Z0, Z4 // [a b a b]
	VSHUFF64X2  $0x88, Z2, Z2, Z5
	VMOVAPD     Z0, Z6
	VPERMT2PD   Z2, Z25, Z6       // [c_r d_i c_r d_i]
	VPERMT2PD   Z2, Z26, Z0       // [c_i d_r c_i d_r]
	VFMADD231PD Z22, Z6, Z4       // Q = [a + c, b - i·d, a - c, b + i·d]
	VFMADD231PD Z23, Z0, Z5

	// Q·tw
	VMULPD      Z21, Z5, Z6
	VFMSUB231PD Z20, Z4, Z6
	VMULPD      Z21, Z4, Z7
	VFMADD231PD Z20, Z5, Z7

	// radix-2 on adjacent lanes: x·[1 -1 …] + swap(x)
	VPERMILPD   $0x55, Z6, Z8
	VFMADD231PD Z24, Z6, Z8
	VPERMILPD   $0x55, Z7, Z9
	VFMADD231PD Z24, Z7, Z9
	VMOVUPD     Z8, (DI)
	VMOVUPD     Z9, (SI)

	ADDQ $64, DI
	ADDQ $64, SI
	DECQ CX
	JNZ  fwdTail8Loop

fwdTail8Done:
	VZEROUPPER
	RET

// func avx512InvTail(dre, dim, sre, sim *float64, blocks int, tw *float64)
//
// avx2InvTail on one 8-point block per re/im register pair, reading s
// and writing d: radix-2, Z = [y0 z1 z2 z3] = x·conj(tw), P = [a c | b e]
// from Z and its swapped halves, then x = [a + c, b + d, a - c, b - d]
// with d = i·e from the same gathers as avx512FwdTail.
TEXT ·avx512InvTail(SB), NOSPLIT, $0-48
	MOVQ      dre+0(FP), DI
	MOVQ      dim+8(FP), SI
	MOVQ      sre+16(FP), R9
	MOVQ      sim+24(FP), R10
	MOVQ      blocks+32(FP), CX
	MOVQ      tw+40(FP), R8
	VMOVUPD   (R8), Z20
	VMOVUPD   64(R8), Z21
	VMOVUPD   signHalf8<>(SB), Z22
	VMOVUPD   signMix8<>(SB), Z23
	VMOVUPD   signAlt8<>(SB), Z24
	VMOVDQU64 pickReIm<>(SB), Z25
	VMOVDQU64 pickImRe<>(SB), Z26
	TESTQ     CX, CX
	JZ        invTail8Done

invTail8Loop:
	VMOVUPD     (R9), Z0
	VMOVUPD     (R10), Z1
	VPERMILPD   $0x55, Z0, Z2
	VFMADD231PD Z24, Z0, Z2    // radix-2 on adjacent lanes
	VPERMILPD   $0x55, Z1, Z3
	VFMADD231PD Z24, Z1, Z3

	// Z = x·conj(tw)
	VMULPD      Z21, Z3, Z4
	VFMADD231PD Z20, Z2, Z4
	VMULPD      Z21, Z2, Z5
	VFMSUB231PD Z20, Z3, Z5

	VSHUFF64X2  $0x4e, Z4, Z4, Z6 // [z2 z3 | y0 z1]
	VFMADD231PD Z22, Z4, Z6       // [a c | b e]
	VSHUFF64X2  $0x4e, Z5, Z5, Z7
	VFMADD231PD Z22, Z5, Z7

	VSHUFF64X2  $0x88, Z6, Z6, Z8 // [a b a b]
	VSHUFF64X2  $0x88, Z7, Z7, Z9
	VMOVAPD     Z6, Z10
	VPERMT2PD   Z7, Z25, Z10      // [c_r e_i c_r e_i]
	VPERMT2PD   Z7, Z26, Z6       // [c_i e_r c_i e_r]
	VFMADD231PD Z23, Z10, Z8      // re: [a + c, b - e_i, a - c, b + e_i]
	VFMADD231PD Z22, Z6, Z9       // im: [a + c, b + e_r, a - c, b - e_r]
	VMOVUPD     Z8, (DI)
	VMOVUPD     Z9, (SI)

	ADDQ $64, DI
	ADDQ $64, SI
	ADDQ $64, R9
	ADDQ $64, R10
	DECQ CX
	JNZ  invTail8Loop

invTail8Done:
	VZEROUPPER
	RET

// func avx512UntwistAdd(dst *uint32, re, im, cos, sin *float64, m int, scale float64)
//
// avx2UntwistAdd eight points at a time; VPMOVQD keeps the low dword of
// each rounded qword.
TEXT ·avx512UntwistAdd(SB), NOSPLIT, $0-56
	MOVQ         dst+0(FP), DI
	MOVQ         re+8(FP), SI
	MOVQ         im+16(FP), DX
	MOVQ         cos+24(FP), R9
	MOVQ         sin+32(FP), R10
	MOVQ         m+40(FP), CX
	VBROADCASTSD scale+48(FP), Z15
	VBROADCASTSD roundMagic<>(SB), Z14
	LEAQ         (DI)(CX*4), R11
	SHRQ         $3, CX
	JZ           untwist8Done
	XORQ         AX, AX // float64 byte offset
	XORQ         BX, BX // uint32 byte offset

untwist8Loop:
	VMULPD      (SI)(AX*1), Z15, Z0 // c·scale
	VMULPD      (DX)(AX*1), Z15, Z1
	VMULPD      (R10)(AX*1), Z1, Z2
	VFMSUB231PD (R9)(AX*1), Z0, Z2  // Re = cr·cos - ci·sin
	VMULPD      (R10)(AX*1), Z0, Z3
	VFMADD231PD (R9)(AX*1), Z1, Z3  // Im = ci·cos + cr·sin
	VADDPD      Z14, Z2, Z2
	VADDPD      Z14, Z3, Z3
	VPMOVQD     Z2, Y2
	VPMOVQD     Z3, Y3
	VPADDD      (DI)(BX*1), Y2, Y2
	VMOVDQU     Y2, (DI)(BX*1)
	VMOVDQU     (R11)(BX*1), Y4
	VPSUBD      Y3, Y4, Y4
	VMOVDQU     Y4, (R11)(BX*1)
	ADDQ        $64, AX
	ADDQ        $32, BX
	DECQ        CX
	JNZ         untwist8Loop

untwist8Done:
	VZEROUPPER
	RET

// func avx512MulAccPair(fr, fi, a1r, a1i, b1r, b1i, a2r, a2i, b2r, b2i *float64, n int)
TEXT ·avx512MulAccPair(SB), NOSPLIT, $0-88
	MOVQ fr+0(FP), DI
	MOVQ fi+8(FP), SI
	MOVQ a1r+16(FP), R8
	MOVQ a1i+24(FP), R9
	MOVQ b1r+32(FP), R10
	MOVQ b1i+40(FP), R11
	MOVQ a2r+48(FP), R12
	MOVQ a2i+56(FP), R13
	MOVQ b2r+64(FP), R14
	MOVQ b2i+72(FP), BX
	MOVQ n+80(FP), CX
	SHRQ $3, CX
	JZ   mulAccPair8Done
	XORQ AX, AX

mulAccPair8Loop:
	VMOVUPD      (DI)(AX*1), Z0
	VMOVUPD      (SI)(AX*1), Z1
	VMOVUPD      (R8)(AX*1), Z2
	VMOVUPD      (R9)(AX*1), Z3
	VMOVUPD      (R10)(AX*1), Z4
	VMOVUPD      (R11)(AX*1), Z5
	VMOVUPD      (R12)(AX*1), Z6
	VMOVUPD      (R13)(AX*1), Z7
	VMOVUPD      (R14)(AX*1), Z8
	VMOVUPD      (BX)(AX*1), Z9
	VFMADD231PD  Z4, Z2, Z0 // fr += a1r·b1r
	VFNMADD231PD Z5, Z3, Z0 // fr -= a1i·b1i
	VFMADD231PD  Z5, Z2, Z1 // fi += a1r·b1i
	VFMADD231PD  Z4, Z3, Z1 // fi += a1i·b1r
	VFMADD231PD  Z8, Z6, Z0 // fr += a2r·b2r
	VFNMADD231PD Z9, Z7, Z0 // fr -= a2i·b2i
	VFMADD231PD  Z9, Z6, Z1 // fi += a2r·b2i
	VFMADD231PD  Z8, Z7, Z1 // fi += a2i·b2r
	VMOVUPD      Z0, (DI)(AX*1)
	VMOVUPD      Z1, (SI)(AX*1)
	ADDQ         $64, AX
	DECQ         CX
	JNZ          mulAccPair8Loop

mulAccPair8Done:
	VZEROUPPER
	RET

// func avx512DigitsFold(dst *float64, src *uint32, cos, sin *float64, m, levels int, offset, mask uint32, half int32, shift, step uint32)
//
// The front end of an external product for one torus polynomial: per block
// of eight j, every level's gadget digits of a = src[j] and b = src[j+m],
// ((x + offset) >> shift) & mask - half with shift dropping by step per
// level (avx2Digit), converted and twisted as in avx512FoldInt into
// polynomial `level` of the flat run dst (re at +0, im at +8m bytes). The
// offset is added and cos and sin are loaded once per block for all levels.
TEXT ·avx512DigitsFold(SB), NOSPLIT, $0-68
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         cos+16(FP), R9
	MOVQ         sin+24(FP), R10
	MOVQ         m+32(FP), CX
	MOVQ         levels+40(FP), R12
	MOVL         offset+48(FP), AX
	VMOVD        AX, X1
	VPBROADCASTD X1, Y1
	MOVL         mask+52(FP), AX
	VMOVD        AX, X2
	VPBROADCASTD X2, Y2
	MOVL         half+56(FP), AX
	VMOVD        AX, X3
	VPBROADCASTD X3, Y3
	MOVL         shift+60(FP), AX
	VMOVD        AX, X10
	VPBROADCASTD X10, Y10
	MOVL         step+64(FP), AX
	VMOVD        AX, X9
	VPBROADCASTD X9, Y9
	LEAQ         (CX*4), R11    // b = a + 4m bytes
	MOVQ         CX, DX
	SHLQ         $3, DX         // 8m: a polynomial's im offset
	LEAQ         (DX)(DX*1), R8 // 16m: the polynomial stride
	SHRQ         $3, CX
	JZ           digitsFoldDone
	XORQ         AX, AX         // float64 byte offset

digitsFoldBlock:
	VMOVDQU (SI), Y6
	VPADDD  Y1, Y6, Y6          // a + offset
	VMOVDQU (SI)(R11*1), Y7
	VPADDD  Y1, Y7, Y7          // b + offset
	VMOVUPD (R9)(AX*1), Z4      // cos
	VMOVUPD (R10)(AX*1), Z5     // sin
	VMOVDQU Y10, Y8             // the first level's shift
	LEAQ    (DI)(AX*1), R13
	MOVQ    R12, R14

digitsFoldLevel:
	VPSRLVD      Y8, Y6, Y12
	VPAND        Y2, Y12, Y12
	VPSUBD       Y3, Y12, Y12   // digit of a
	VPSRLVD      Y8, Y7, Y13
	VPAND        Y2, Y13, Y13
	VPSUBD       Y3, Y13, Y13   // digit of b
	VCVTDQ2PD    Y12, Z16
	VCVTDQ2PD    Y13, Z17
	VMULPD       Z5, Z17, Z18
	VFMSUB231PD  Z4, Z16, Z18   // re = a·cos - b·sin
	VMULPD       Z4, Z17, Z19
	VFNMSUB231PD Z5, Z16, Z19   // im = -a·sin - b·cos
	VMOVUPD      Z18, (R13)
	VMOVUPD      Z19, (R13)(DX*1)
	ADDQ         R8, R13
	VPSUBD       Y9, Y8, Y8
	DECQ         R14
	JNZ          digitsFoldLevel

	ADDQ $32, SI
	ADDQ $64, AX
	DECQ CX
	JNZ  digitsFoldBlock

digitsFoldDone:
	VZEROUPPER
	RET

// func avx512MulAccRows(dst, spec, key *float64, m, rows, outs int)
//
// dst[c] = Σ_u spec[u]·key[u·outs + c] over flat runs of polynomials with
// m points (m a multiple of 32). Per block of 32 points (four vectors) the
// sums of two outputs at a time, then of a last odd one, stay in registers
// over all rows, starting from zero and running avx512MulAccPair's FMA
// chain row by row, and are stored once. Four independent vectors per sum
// keep the FMA chains from stalling on their latency. Registers: CX = 8m
// (im offset; 16m = CX*2 is the next polynomial), R10 = 24m (the second
// output's im), R11 = outs·16m (the key's row stride).
TEXT ·avx512MulAccRows(SB), NOSPLIT, $0-48
	MOVQ  dst+0(FP), DI
	MOVQ  spec+8(FP), SI
	MOVQ  key+16(FP), DX
	MOVQ  m+24(FP), CX
	MOVQ  outs+40(FP), R11
	MOVQ  CX, BX
	SHRQ  $5, BX                // blocks
	SHLQ  $3, CX                // 8m
	LEAQ  (CX)(CX*2), R10       // 24m
	IMULQ CX, R11
	SHLQ  $1, R11               // outs·16m
	TESTQ BX, BX
	JZ    mulAccRowsDone

mulAccRowsBlock:
	MOVQ outs+40(FP), R12       // outputs left
	MOVQ DX, R13                // key (0, c)
	MOVQ DI, R14                // dst c

mulAccRowsPair:
	CMPQ R12, $2
	JLT  mulAccRowsOne
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	VPXORQ Z12, Z12, Z12
	VPXORQ Z13, Z13, Z13
	VPXORQ Z14, Z14, Z14
	VPXORQ Z15, Z15, Z15
	MOVQ SI, R9                 // spec u
	MOVQ R13, AX                // key (u, c)
	MOVQ rows+32(FP), R8

mulAccRowsPairRow:
	VMOVUPD      (R9), Z24         // spec re
	VMOVUPD      (R9)(CX*1), Z25   // spec im
	VMOVUPD      (AX), Z26         // key (u, c) re
	VMOVUPD      (AX)(CX*1), Z27   // key (u, c) im
	VMOVUPD      (AX)(CX*2), Z28   // key (u, c+1) re
	VMOVUPD      (AX)(R10*1), Z29  // key (u, c+1) im
	VFMADD231PD  Z26, Z24, Z0        // re_c += sr·kr
	VFNMADD231PD Z27, Z25, Z0        // re_c -= si·ki
	VFMADD231PD  Z27, Z24, Z4        // im_c += sr·ki
	VFMADD231PD  Z26, Z25, Z4        // im_c += si·kr
	VFMADD231PD  Z28, Z24, Z8
	VFNMADD231PD Z29, Z25, Z8
	VFMADD231PD  Z29, Z24, Z12
	VFMADD231PD  Z28, Z25, Z12
	VMOVUPD      64(R9), Z24         // spec re
	VMOVUPD      64(R9)(CX*1), Z25   // spec im
	VMOVUPD      64(AX), Z26         // key (u, c) re
	VMOVUPD      64(AX)(CX*1), Z27   // key (u, c) im
	VMOVUPD      64(AX)(CX*2), Z28   // key (u, c+1) re
	VMOVUPD      64(AX)(R10*1), Z29  // key (u, c+1) im
	VFMADD231PD  Z26, Z24, Z1        // re_c += sr·kr
	VFNMADD231PD Z27, Z25, Z1        // re_c -= si·ki
	VFMADD231PD  Z27, Z24, Z5        // im_c += sr·ki
	VFMADD231PD  Z26, Z25, Z5        // im_c += si·kr
	VFMADD231PD  Z28, Z24, Z9
	VFNMADD231PD Z29, Z25, Z9
	VFMADD231PD  Z29, Z24, Z13
	VFMADD231PD  Z28, Z25, Z13
	VMOVUPD      128(R9), Z24         // spec re
	VMOVUPD      128(R9)(CX*1), Z25   // spec im
	VMOVUPD      128(AX), Z26         // key (u, c) re
	VMOVUPD      128(AX)(CX*1), Z27   // key (u, c) im
	VMOVUPD      128(AX)(CX*2), Z28   // key (u, c+1) re
	VMOVUPD      128(AX)(R10*1), Z29  // key (u, c+1) im
	VFMADD231PD  Z26, Z24, Z2        // re_c += sr·kr
	VFNMADD231PD Z27, Z25, Z2        // re_c -= si·ki
	VFMADD231PD  Z27, Z24, Z6        // im_c += sr·ki
	VFMADD231PD  Z26, Z25, Z6        // im_c += si·kr
	VFMADD231PD  Z28, Z24, Z10
	VFNMADD231PD Z29, Z25, Z10
	VFMADD231PD  Z29, Z24, Z14
	VFMADD231PD  Z28, Z25, Z14
	VMOVUPD      192(R9), Z24         // spec re
	VMOVUPD      192(R9)(CX*1), Z25   // spec im
	VMOVUPD      192(AX), Z26         // key (u, c) re
	VMOVUPD      192(AX)(CX*1), Z27   // key (u, c) im
	VMOVUPD      192(AX)(CX*2), Z28   // key (u, c+1) re
	VMOVUPD      192(AX)(R10*1), Z29  // key (u, c+1) im
	VFMADD231PD  Z26, Z24, Z3        // re_c += sr·kr
	VFNMADD231PD Z27, Z25, Z3        // re_c -= si·ki
	VFMADD231PD  Z27, Z24, Z7        // im_c += sr·ki
	VFMADD231PD  Z26, Z25, Z7        // im_c += si·kr
	VFMADD231PD  Z28, Z24, Z11
	VFNMADD231PD Z29, Z25, Z11
	VFMADD231PD  Z29, Z24, Z15
	VFMADD231PD  Z28, Z25, Z15
	LEAQ (R9)(CX*2), R9
	ADDQ R11, AX
	DECQ R8
	JNZ  mulAccRowsPairRow

	VMOVUPD Z0, (R14)
	VMOVUPD Z1, 64(R14)
	VMOVUPD Z2, 128(R14)
	VMOVUPD Z3, 192(R14)
	VMOVUPD Z4, (R14)(CX*1)
	VMOVUPD Z5, 64(R14)(CX*1)
	VMOVUPD Z6, 128(R14)(CX*1)
	VMOVUPD Z7, 192(R14)(CX*1)
	VMOVUPD Z8, (R14)(CX*2)
	VMOVUPD Z9, 64(R14)(CX*2)
	VMOVUPD Z10, 128(R14)(CX*2)
	VMOVUPD Z11, 192(R14)(CX*2)
	VMOVUPD Z12, (R14)(R10*1)
	VMOVUPD Z13, 64(R14)(R10*1)
	VMOVUPD Z14, 128(R14)(R10*1)
	VMOVUPD Z15, 192(R14)(R10*1)
	LEAQ (R13)(CX*4), R13
	LEAQ (R14)(CX*4), R14
	SUBQ $2, R12
	JMP  mulAccRowsPair

mulAccRowsOne:
	TESTQ R12, R12
	JZ    mulAccRowsNext
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	MOVQ  SI, R9
	MOVQ  R13, AX
	MOVQ  rows+32(FP), R8

mulAccRowsOneRow:
	VMOVUPD      (R9), Z24
	VMOVUPD      (R9)(CX*1), Z25
	VMOVUPD      (AX), Z26
	VMOVUPD      (AX)(CX*1), Z27
	VFMADD231PD  Z26, Z24, Z0
	VFNMADD231PD Z27, Z25, Z0
	VFMADD231PD  Z27, Z24, Z4
	VFMADD231PD  Z26, Z25, Z4
	VMOVUPD      64(R9), Z24
	VMOVUPD      64(R9)(CX*1), Z25
	VMOVUPD      64(AX), Z26
	VMOVUPD      64(AX)(CX*1), Z27
	VFMADD231PD  Z26, Z24, Z1
	VFNMADD231PD Z27, Z25, Z1
	VFMADD231PD  Z27, Z24, Z5
	VFMADD231PD  Z26, Z25, Z5
	VMOVUPD      128(R9), Z24
	VMOVUPD      128(R9)(CX*1), Z25
	VMOVUPD      128(AX), Z26
	VMOVUPD      128(AX)(CX*1), Z27
	VFMADD231PD  Z26, Z24, Z2
	VFNMADD231PD Z27, Z25, Z2
	VFMADD231PD  Z27, Z24, Z6
	VFMADD231PD  Z26, Z25, Z6
	VMOVUPD      192(R9), Z24
	VMOVUPD      192(R9)(CX*1), Z25
	VMOVUPD      192(AX), Z26
	VMOVUPD      192(AX)(CX*1), Z27
	VFMADD231PD  Z26, Z24, Z3
	VFNMADD231PD Z27, Z25, Z3
	VFMADD231PD  Z27, Z24, Z7
	VFMADD231PD  Z26, Z25, Z7
	LEAQ (R9)(CX*2), R9
	ADDQ R11, AX
	DECQ R8
	JNZ  mulAccRowsOneRow

	VMOVUPD Z0, (R14)
	VMOVUPD Z1, 64(R14)
	VMOVUPD Z2, 128(R14)
	VMOVUPD Z3, 192(R14)
	VMOVUPD Z4, (R14)(CX*1)
	VMOVUPD Z5, 64(R14)(CX*1)
	VMOVUPD Z6, 128(R14)(CX*1)
	VMOVUPD Z7, 192(R14)(CX*1)

mulAccRowsNext:
	ADDQ $256, DI
	ADDQ $256, SI
	ADDQ $256, DX
	DECQ BX
	JNZ  mulAccRowsBlock

mulAccRowsDone:
	VZEROUPPER
	RET
