// AVX2/FMA kernels for the fused path (amd64). Plan 9 assembler syntax.
//
// Every routine requires: len(x) > 0 and len(x) % 4 == 0 (the Go wrappers
// in simd_amd64.go split off the scalar tail), equal slice lengths, and a
// host with AVX2+FMA (wrappers dispatch on the cpuid probe). Accumulating
// routines keep several independent accumulator registers per quantity —
// four in the dot loops (sqNormAVX, gammaDotAVX), two in the rotate loops
// (rotateGramAVX, rotateGramNextAVX) — so consecutive FMAs into one
// quantity do not wait on each other's 4-cycle latency; the registers are
// added pairwise and the four lanes combined by one horizontal reduction
// at the end. That is a reassociation of the reference sums, covered by
// the kernel package's documented ulp bound. Rotation
// application deliberately avoids FMA (VMULPD/VADDPD/VSUBPD only): per
// element it performs exactly the reference arithmetic, so applied columns
// stay bit-identical to Rotation.Apply given identical inputs.

#include "textflag.h"

// func cpuidex(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// HSUM4 collapses the four lanes of Y register y into lane 0 of its X
// half, using X register t as scratch.
#define HSUM4(y, x, t) \
	VEXTRACTF128 $1, y, t \
	VADDPD       t, x, x  \
	VHADDPD      x, x, x

// func sqNormAVX(x []float64) float64
TEXT ·sqNormAVX(SB), NOSPLIT, $0-32
	MOVQ   x_base+0(FP), SI
	MOVQ   x_len+8(FP), CX
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	XORQ   AX, AX
	MOVQ   CX, BX
	ANDQ   $-16, BX                  // 16-row prefix: four chains
	JZ     sqrem

sqloop:
	VMOVUPD     (SI)(AX*8), Y0
	VMOVUPD     32(SI)(AX*8), Y1
	VMOVUPD     64(SI)(AX*8), Y2
	VMOVUPD     96(SI)(AX*8), Y3
	VFMADD231PD Y0, Y0, Y4
	VFMADD231PD Y1, Y1, Y5
	VFMADD231PD Y2, Y2, Y6
	VFMADD231PD Y3, Y3, Y7
	ADDQ        $16, AX
	CMPQ        AX, BX
	JL          sqloop

sqrem:                               // 4-row remainders, at most three
	CMPQ        AX, CX
	JGE         sqdone
	VMOVUPD     (SI)(AX*8), Y0
	VFMADD231PD Y0, Y0, Y4
	ADDQ        $4, AX
	JMP         sqrem

sqdone:
	VADDPD Y5, Y4, Y4
	VADDPD Y7, Y6, Y6
	VADDPD Y6, Y4, Y4
	HSUM4(Y4, X4, X5)
	VZEROUPPER
	MOVSD  X4, ret+24(FP)
	RET

// func gammaDotAVX(x, y []float64) float64
TEXT ·gammaDotAVX(SB), NOSPLIT, $0-56
	MOVQ   x_base+0(FP), SI
	MOVQ   y_base+24(FP), DI
	MOVQ   x_len+8(FP), CX
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	XORQ   AX, AX
	MOVQ   CX, BX
	ANDQ   $-16, BX                  // 16-row prefix: four chains
	JZ     gdrem

gdloop:
	VMOVUPD     (SI)(AX*8), Y0
	VMOVUPD     32(SI)(AX*8), Y1
	VMOVUPD     64(SI)(AX*8), Y2
	VMOVUPD     96(SI)(AX*8), Y3
	VFMADD231PD (DI)(AX*8), Y0, Y4
	VFMADD231PD 32(DI)(AX*8), Y1, Y5
	VFMADD231PD 64(DI)(AX*8), Y2, Y6
	VFMADD231PD 96(DI)(AX*8), Y3, Y7
	ADDQ        $16, AX
	CMPQ        AX, BX
	JL          gdloop

gdrem:                               // 4-row remainders, at most three
	CMPQ        AX, CX
	JGE         gddone
	VMOVUPD     (SI)(AX*8), Y0
	VFMADD231PD (DI)(AX*8), Y0, Y4
	ADDQ        $4, AX
	JMP         gdrem

gddone:
	VADDPD Y5, Y4, Y4
	VADDPD Y7, Y6, Y6
	VADDPD Y6, Y4, Y4
	HSUM4(Y4, X4, X5)
	VZEROUPPER
	MOVSD  X4, ret+48(FP)
	RET

// ROT4 rotates the four rows at byte offset off into xr (X) and yr (Y),
// stores them back and leaves them in the registers. Y0 = c, Y1 = s; Y2,
// Y3 and Y9 are clobbered.
#define ROT4(off, xr, yr) \
	VMOVUPD off(SI)(AX*8), Y2 \
	VMOVUPD off(DI)(AX*8), Y3 \
	VMULPD  Y0, Y2, xr        \
	VMULPD  Y1, Y3, Y9        \
	VSUBPD  Y9, xr, xr        \
	VMULPD  Y1, Y2, yr        \
	VMULPD  Y0, Y3, Y9        \
	VADDPD  Y9, yr, yr        \
	VMOVUPD xr, off(SI)(AX*8) \
	VMOVUPD yr, off(DI)(AX*8)

// func applyPairAVX(c, s float64, x, y []float64)
TEXT ·applyPairAVX(SB), NOSPLIT, $0-64
	VBROADCASTSD c+0(FP), Y0
	VBROADCASTSD s+8(FP), Y1
	MOVQ         x_base+16(FP), SI
	MOVQ         y_base+40(FP), DI
	MOVQ         x_len+24(FP), CX
	XORQ         AX, AX

aploop:
	ROT4(0, Y7, Y8)
	ADDQ $4, AX
	CMPQ AX, CX
	JL   aploop
	VZEROUPPER
	RET

// func rotateGramAVX(c, s float64, x, y []float64) (a, b float64)
TEXT ·rotateGramAVX(SB), NOSPLIT, $0-80
	VBROADCASTSD c+0(FP), Y0
	VBROADCASTSD s+8(FP), Y1
	MOVQ         x_base+16(FP), SI
	MOVQ         y_base+40(FP), DI
	MOVQ         x_len+24(FP), CX
	VXORPD       Y4, Y4, Y4          // a, even 4-row groups
	VXORPD       Y5, Y5, Y5          // b, even 4-row groups
	VXORPD       Y10, Y10, Y10       // a, odd 4-row groups
	VXORPD       Y11, Y11, Y11       // b, odd 4-row groups
	XORQ         AX, AX
	MOVQ         CX, BX
	ANDQ         $-8, BX             // 8-row prefix: two chains
	JZ           rgrem

rgloop:
	ROT4(0, Y7, Y8)
	VFMADD231PD Y7, Y7, Y4           // a += xr*xr
	VFMADD231PD Y8, Y8, Y5           // b += yr*yr
	ROT4(32, Y12, Y13)
	VFMADD231PD Y12, Y12, Y10
	VFMADD231PD Y13, Y13, Y11
	ADDQ        $8, AX
	CMPQ        AX, BX
	JL          rgloop

rgrem:                               // one 4-row remainder
	CMPQ        AX, CX
	JGE         rgdone
	ROT4(0, Y7, Y8)
	VFMADD231PD Y7, Y7, Y4
	VFMADD231PD Y8, Y8, Y5

rgdone:
	VADDPD Y10, Y4, Y4
	VADDPD Y11, Y5, Y5
	HSUM4(Y4, X4, X7)
	HSUM4(Y5, X5, X7)
	VZEROUPPER
	MOVSD  X4, a+64(FP)
	MOVSD  X5, b+72(FP)
	RET

// func rotateGramNextAVX(c, s float64, x, y, yn []float64) (a, b, gam float64)
TEXT ·rotateGramNextAVX(SB), NOSPLIT, $0-112
	VBROADCASTSD c+0(FP), Y0
	VBROADCASTSD s+8(FP), Y1
	MOVQ         x_base+16(FP), SI
	MOVQ         y_base+40(FP), DI
	MOVQ         yn_base+64(FP), DX
	MOVQ         x_len+24(FP), CX
	VXORPD       Y4, Y4, Y4          // a, even 4-row groups
	VXORPD       Y5, Y5, Y5          // b, even 4-row groups
	VXORPD       Y6, Y6, Y6          // g, even 4-row groups
	VXORPD       Y10, Y10, Y10       // a, odd 4-row groups
	VXORPD       Y11, Y11, Y11       // b, odd 4-row groups
	VXORPD       Y14, Y14, Y14       // g, odd 4-row groups
	XORQ         AX, AX
	MOVQ         CX, BX
	ANDQ         $-8, BX             // 8-row prefix: two chains
	JZ           rgnrem

rgnloop:
	ROT4(0, Y7, Y8)
	VFMADD231PD Y7, Y7, Y4           // a += xr*xr
	VFMADD231PD Y8, Y8, Y5           // b += yr*yr
	VFMADD231PD (DX)(AX*8), Y7, Y6   // g += xr*yn
	ROT4(32, Y12, Y13)
	VFMADD231PD Y12, Y12, Y10
	VFMADD231PD Y13, Y13, Y11
	VFMADD231PD 32(DX)(AX*8), Y12, Y14
	ADDQ        $8, AX
	CMPQ        AX, BX
	JL          rgnloop

rgnrem:                              // one 4-row remainder
	CMPQ        AX, CX
	JGE         rgndone
	ROT4(0, Y7, Y8)
	VFMADD231PD Y7, Y7, Y4
	VFMADD231PD Y8, Y8, Y5
	VFMADD231PD (DX)(AX*8), Y7, Y6

rgndone:
	VADDPD Y10, Y4, Y4
	VADDPD Y11, Y5, Y5
	VADDPD Y14, Y6, Y6
	HSUM4(Y4, X4, X7)
	HSUM4(Y5, X5, X7)
	HSUM4(Y6, X6, X7)
	VZEROUPPER
	MOVSD  X4, a+88(FP)
	MOVSD  X5, b+96(FP)
	MOVSD  X6, gam+104(FP)
	RET
