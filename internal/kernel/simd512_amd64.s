// AVX-512 kernels for the fused path (amd64). Plan 9 assembler syntax.
//
// The same five primitives as simd_amd64.s, eight rows per ZMM register.
// Every routine requires: len(x) > 0 and len(x) % 8 == 0 (the Go wrappers
// in simd_amd64.go split off the scalar tail), equal slice lengths, and a
// host with AVX-512 F+DQ (wrappers dispatch on the cpuid probe). Each
// routine runs an unrolled main loop and then the 8-row remainder groups
// itself, so no prefix falls back to a narrower arm.
//
// Accumulating routines keep four ZMM accumulators per quantity in the dot
// loops (32 rows per iteration) and two sets in the rotate loops (16 rows
// per iteration), so no FMA waits on the previous FMA into the same
// register; the registers are added pairwise and the eight lanes combined
// by one horizontal reduction at the end — one more reassociation of the
// reference sums, covered by the kernel package's documented ulp bound.
// Rotation application deliberately avoids FMA (VMULPD/VADDPD/VSUBPD only):
// per element it performs exactly the reference arithmetic, so applied
// columns stay bit-identical to Rotation.Apply given identical inputs.

#include "textflag.h"

// HSUM8 collapses the eight lanes of Z register z into lane 0 of its X
// quarter (y and x name its Y and X views), using one more register's Y
// and X views (ty, tx) as scratch.
#define HSUM8(z, y, x, ty, tx) \
	VEXTRACTF64X4 $1, z, ty \
	VADDPD        ty, y, y  \
	VEXTRACTF128  $1, y, tx \
	VADDPD        tx, x, x  \
	VHADDPD       x, x, x

// func sqNormAVX512(x []float64) float64
TEXT ·sqNormAVX512(SB), NOSPLIT, $0-32
	MOVQ   x_base+0(FP), SI
	MOVQ   x_len+8(FP), CX
	VXORPD Z4, Z4, Z4
	VXORPD Z5, Z5, Z5
	VXORPD Z6, Z6, Z6
	VXORPD Z7, Z7, Z7
	XORQ   AX, AX
	MOVQ   CX, BX
	ANDQ   $-32, BX                  // 32-row prefix: four chains
	JZ     sq8rem

sq8loop:
	VMOVUPD     (SI)(AX*8), Z0
	VMOVUPD     64(SI)(AX*8), Z1
	VMOVUPD     128(SI)(AX*8), Z2
	VMOVUPD     192(SI)(AX*8), Z3
	VFMADD231PD Z0, Z0, Z4
	VFMADD231PD Z1, Z1, Z5
	VFMADD231PD Z2, Z2, Z6
	VFMADD231PD Z3, Z3, Z7
	ADDQ        $32, AX
	CMPQ        AX, BX
	JL          sq8loop

sq8rem:                              // 8-row remainders, at most three
	CMPQ        AX, CX
	JGE         sq8done
	VMOVUPD     (SI)(AX*8), Z0
	VFMADD231PD Z0, Z0, Z4
	ADDQ        $8, AX
	JMP         sq8rem

sq8done:
	VADDPD Z5, Z4, Z4
	VADDPD Z7, Z6, Z6
	VADDPD Z6, Z4, Z4
	HSUM8(Z4, Y4, X4, Y5, X5)
	VZEROUPPER
	MOVSD  X4, ret+24(FP)
	RET

// func gammaDotAVX512(x, y []float64) float64
TEXT ·gammaDotAVX512(SB), NOSPLIT, $0-56
	MOVQ   x_base+0(FP), SI
	MOVQ   y_base+24(FP), DI
	MOVQ   x_len+8(FP), CX
	VXORPD Z4, Z4, Z4
	VXORPD Z5, Z5, Z5
	VXORPD Z6, Z6, Z6
	VXORPD Z7, Z7, Z7
	XORQ   AX, AX
	MOVQ   CX, BX
	ANDQ   $-32, BX                  // 32-row prefix: four chains
	JZ     gd8rem

gd8loop:
	VMOVUPD     (SI)(AX*8), Z0
	VMOVUPD     64(SI)(AX*8), Z1
	VMOVUPD     128(SI)(AX*8), Z2
	VMOVUPD     192(SI)(AX*8), Z3
	VFMADD231PD (DI)(AX*8), Z0, Z4
	VFMADD231PD 64(DI)(AX*8), Z1, Z5
	VFMADD231PD 128(DI)(AX*8), Z2, Z6
	VFMADD231PD 192(DI)(AX*8), Z3, Z7
	ADDQ        $32, AX
	CMPQ        AX, BX
	JL          gd8loop

gd8rem:                              // 8-row remainders, at most three
	CMPQ        AX, CX
	JGE         gd8done
	VMOVUPD     (SI)(AX*8), Z0
	VFMADD231PD (DI)(AX*8), Z0, Z4
	ADDQ        $8, AX
	JMP         gd8rem

gd8done:
	VADDPD Z5, Z4, Z4
	VADDPD Z7, Z6, Z6
	VADDPD Z6, Z4, Z4
	HSUM8(Z4, Y4, X4, Y5, X5)
	VZEROUPPER
	MOVSD  X4, ret+48(FP)
	RET

// ROT8 rotates the eight rows at byte offset off into xr (X) and yr (Y),
// stores them back and leaves them in the registers. Z0 = c, Z1 = s; x, y
// and t are scratch.
#define ROT8(off, xr, yr, x, y, t) \
	VMOVUPD off(SI)(AX*8), x  \
	VMOVUPD off(DI)(AX*8), y  \
	VMULPD  Z0, x, xr         \
	VMULPD  Z1, y, t          \
	VSUBPD  t, xr, xr         \
	VMULPD  Z1, x, yr         \
	VMULPD  Z0, y, t          \
	VADDPD  t, yr, yr         \
	VMOVUPD xr, off(SI)(AX*8) \
	VMOVUPD yr, off(DI)(AX*8)

// func applyPairAVX512(c, s float64, x, y []float64)
TEXT ·applyPairAVX512(SB), NOSPLIT, $0-64
	VBROADCASTSD c+0(FP), Z0
	VBROADCASTSD s+8(FP), Z1
	MOVQ         x_base+16(FP), SI
	MOVQ         y_base+40(FP), DI
	MOVQ         x_len+24(FP), CX
	XORQ         AX, AX
	MOVQ         CX, BX
	ANDQ         $-16, BX            // 16-row prefix
	JZ           ap8rem

ap8loop:
	ROT8(0, Z7, Z8, Z2, Z3, Z9)
	ROT8(64, Z17, Z18, Z12, Z13, Z19)
	ADDQ $16, AX
	CMPQ AX, BX
	JL   ap8loop

ap8rem:                              // one 8-row remainder
	CMPQ AX, CX
	JGE  ap8done
	ROT8(0, Z7, Z8, Z2, Z3, Z9)

ap8done:
	VZEROUPPER
	RET

// func rotateGramAVX512(c, s float64, x, y []float64) (a, b float64)
TEXT ·rotateGramAVX512(SB), NOSPLIT, $0-80
	VBROADCASTSD c+0(FP), Z0
	VBROADCASTSD s+8(FP), Z1
	MOVQ         x_base+16(FP), SI
	MOVQ         y_base+40(FP), DI
	MOVQ         x_len+24(FP), CX
	VXORPD       Z4, Z4, Z4          // a, even 8-row groups
	VXORPD       Z5, Z5, Z5          // b, even 8-row groups
	VXORPD       Z14, Z14, Z14       // a, odd 8-row groups
	VXORPD       Z15, Z15, Z15       // b, odd 8-row groups
	XORQ         AX, AX
	MOVQ         CX, BX
	ANDQ         $-16, BX            // 16-row prefix: two chains
	JZ           rg8rem

rg8loop:
	ROT8(0, Z7, Z8, Z2, Z3, Z9)
	VFMADD231PD Z7, Z7, Z4           // a += xr*xr
	VFMADD231PD Z8, Z8, Z5           // b += yr*yr
	ROT8(64, Z17, Z18, Z12, Z13, Z19)
	VFMADD231PD Z17, Z17, Z14
	VFMADD231PD Z18, Z18, Z15
	ADDQ        $16, AX
	CMPQ        AX, BX
	JL          rg8loop

rg8rem:                              // one 8-row remainder
	CMPQ        AX, CX
	JGE         rg8done
	ROT8(0, Z7, Z8, Z2, Z3, Z9)
	VFMADD231PD Z7, Z7, Z4
	VFMADD231PD Z8, Z8, Z5

rg8done:
	VADDPD Z14, Z4, Z4
	VADDPD Z15, Z5, Z5
	HSUM8(Z4, Y4, X4, Y7, X7)
	HSUM8(Z5, Y5, X5, Y7, X7)
	VZEROUPPER
	MOVSD  X4, a+64(FP)
	MOVSD  X5, b+72(FP)
	RET

// func rotateGramNextAVX512(c, s float64, x, y, yn []float64) (a, b, gam float64)
TEXT ·rotateGramNextAVX512(SB), NOSPLIT, $0-112
	VBROADCASTSD c+0(FP), Z0
	VBROADCASTSD s+8(FP), Z1
	MOVQ         x_base+16(FP), SI
	MOVQ         y_base+40(FP), DI
	MOVQ         yn_base+64(FP), DX
	MOVQ         x_len+24(FP), CX
	VXORPD       Z4, Z4, Z4          // a, even 8-row groups
	VXORPD       Z5, Z5, Z5          // b, even 8-row groups
	VXORPD       Z6, Z6, Z6          // g, even 8-row groups
	VXORPD       Z14, Z14, Z14       // a, odd 8-row groups
	VXORPD       Z15, Z15, Z15       // b, odd 8-row groups
	VXORPD       Z16, Z16, Z16       // g, odd 8-row groups
	XORQ         AX, AX
	MOVQ         CX, BX
	ANDQ         $-16, BX            // 16-row prefix: two chains
	JZ           rgn8rem

rgn8loop:
	ROT8(0, Z7, Z8, Z2, Z3, Z9)
	VFMADD231PD Z7, Z7, Z4           // a += xr*xr
	VFMADD231PD Z8, Z8, Z5           // b += yr*yr
	VFMADD231PD (DX)(AX*8), Z7, Z6   // g += xr*yn
	ROT8(64, Z17, Z18, Z12, Z13, Z19)
	VFMADD231PD Z17, Z17, Z14
	VFMADD231PD Z18, Z18, Z15
	VFMADD231PD 64(DX)(AX*8), Z17, Z16
	ADDQ        $16, AX
	CMPQ        AX, BX
	JL          rgn8loop

rgn8rem:                             // one 8-row remainder
	CMPQ        AX, CX
	JGE         rgn8done
	ROT8(0, Z7, Z8, Z2, Z3, Z9)
	VFMADD231PD Z7, Z7, Z4
	VFMADD231PD Z8, Z8, Z5
	VFMADD231PD (DX)(AX*8), Z7, Z6

rgn8done:
	VADDPD Z14, Z4, Z4
	VADDPD Z15, Z5, Z5
	VADDPD Z16, Z6, Z6
	HSUM8(Z4, Y4, X4, Y7, X7)
	HSUM8(Z5, Y5, X5, Y7, X7)
	HSUM8(Z6, Y6, X6, Y7, X7)
	VZEROUPPER
	MOVSD  X4, a+88(FP)
	MOVSD  X5, b+96(FP)
	MOVSD  X6, gam+104(FP)
	RET
