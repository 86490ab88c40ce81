// AVX-512 kernels for the lane path (amd64). Plan 9 assembler syntax.
//
// Each routine advances a group of EIGHT interleaved job lanes per loop
// iteration: one ZMM register holds the same element of eight jobs, so at
// the scheduler's default lane width the whole lane row is a single load.
// The slice bases are pre-offset to the group's first lane, stride is the
// full lane width in elements (shifted to bytes here), and rows counts lane
// rows. Wrappers guarantee rows >= 1, so loops are do-while.
//
// Masking uses the opmask registers natively: VPMOVQ2M lifts the sign-bit
// mask vector into a K register, masked stores write only active lanes (a
// masked lane's memory bytes are never touched — no blend in the data
// path), and merge-masked FMAs keep a masked lane's carried norms out of
// the accumulators. Rotation application avoids FMA (VMULPD/VADDPD/VSUBPD
// only) so rotated lanes match Rotation.Apply bit-for-bit, exactly like the
// AVX2 arm.
//
// The accumulating routines (sqNorm, gammaDot) run TWO accumulator chains
// per lane — even rows and odd rows, combined with one add at the end — to
// break the loop-carried FMA latency that bounds a single chain. That is
// one more reassociation of the same products, the same license the fused
// path's vector reductions already use, and it stays inside
// the package's documented ulp bound (the differential suite runs this arm
// explicitly). The rotateGram norm carry keeps one chain per lane: its loop
// body is port-bound, so a second chain would buy nothing.

#include "textflag.h"

// func sqNormBatch8AVX512(x []float64, stride, rows int64, out []float64)
TEXT ·sqNormBatch8AVX512(SB), NOSPLIT, $0-64
	MOVQ   x_base+0(FP), SI
	MOVQ   stride+24(FP), BX
	SHLQ   $3, BX                    // stride in bytes
	MOVQ   rows+32(FP), CX
	VXORPD Z4, Z4, Z4                // even-row chain
	VXORPD Z5, Z5, Z5                // odd-row chain

	SUBQ $2, CX
	JL   sqb8tail                    // rows == 1

sqb8loop:
	VMOVUPD     (SI), Z2
	VMOVUPD     (SI)(BX*1), Z3
	VFMADD231PD Z2, Z2, Z4
	VFMADD231PD Z3, Z3, Z5
	LEAQ        (SI)(BX*2), SI
	SUBQ        $2, CX
	JGE         sqb8loop

sqb8tail:
	ADDQ $2, CX
	JZ   sqb8done                    // even row count: nothing left
	VMOVUPD     (SI), Z2
	VFMADD231PD Z2, Z2, Z4

sqb8done:
	VADDPD  Z5, Z4, Z4               // combine chains, per lane
	MOVQ    out_base+40(FP), DI
	VMOVUPD Z4, (DI)
	VZEROUPPER
	RET

// func gammaDotBatch8AVX512(x, y []float64, stride, rows int64, out []float64)
TEXT ·gammaDotBatch8AVX512(SB), NOSPLIT, $0-88
	MOVQ   x_base+0(FP), SI
	MOVQ   y_base+24(FP), DI
	MOVQ   stride+48(FP), BX
	SHLQ   $3, BX
	MOVQ   rows+56(FP), CX
	VXORPD Z4, Z4, Z4                // even-row chain
	VXORPD Z5, Z5, Z5                // odd-row chain

	SUBQ $2, CX
	JL   gdb8tail

gdb8loop:
	VMOVUPD     (SI), Z2
	VMOVUPD     (DI), Z3
	VFMADD231PD Z2, Z3, Z4
	VMOVUPD     (SI)(BX*1), Z6
	VMOVUPD     (DI)(BX*1), Z7
	VFMADD231PD Z6, Z7, Z5
	LEAQ        (SI)(BX*2), SI
	LEAQ        (DI)(BX*2), DI
	SUBQ        $2, CX
	JGE         gdb8loop

gdb8tail:
	ADDQ $2, CX
	JZ   gdb8done
	VMOVUPD     (SI), Z2
	VMOVUPD     (DI), Z3
	VFMADD231PD Z2, Z3, Z4

gdb8done:
	VADDPD  Z5, Z4, Z4
	MOVQ    out_base+64(FP), DX
	VMOVUPD Z4, (DX)
	VZEROUPPER
	RET

// func applyPairBatch8AVX512(c, s, mask, x, y []float64, stride, rows int64)
TEXT ·applyPairBatch8AVX512(SB), NOSPLIT, $0-136
	MOVQ     c_base+0(FP), AX
	VMOVUPD  (AX), Z0                // per-lane cosines
	MOVQ     s_base+24(FP), AX
	VMOVUPD  (AX), Z1                // per-lane sines
	MOVQ     mask_base+48(FP), AX
	VMOVUPD  (AX), Z10
	VPMOVQ2M Z10, K1                 // sign bit -> opmask: 1 = rotate
	MOVQ     x_base+72(FP), SI
	MOVQ     y_base+96(FP), DI
	MOVQ     stride+120(FP), BX
	SHLQ     $3, BX
	MOVQ     rows+128(FP), CX

apb8loop:
	VMOVUPD (SI), Z2                 // x
	VMOVUPD (DI), Z3                 // y
	PREFETCHT0 512(DI)               // partner column streams in cold from L2
	VMULPD  Z0, Z2, Z7               // c*x
	VMULPD  Z1, Z3, Z8               // s*y
	VSUBPD  Z8, Z7, Z7               // xr = c*x - s*y
	VMULPD  Z1, Z2, Z8               // s*x
	VMULPD  Z0, Z3, Z9               // c*y
	VADDPD  Z9, Z8, Z8               // yr = s*x + c*y
	VMOVUPD Z7, K1, (SI)             // masked lanes keep their bytes
	VMOVUPD Z8, K1, (DI)
	ADDQ    BX, SI
	ADDQ    BX, DI
	DECQ    CX
	JNZ     apb8loop
	VZEROUPPER
	RET

// func rotateGramBatch8AVX512(c, s, mask, x, y []float64, stride, rows int64, a, b []float64)
TEXT ·rotateGramBatch8AVX512(SB), NOSPLIT, $0-184
	MOVQ     c_base+0(FP), AX
	VMOVUPD  (AX), Z0
	MOVQ     s_base+24(FP), AX
	VMOVUPD  (AX), Z1
	MOVQ     mask_base+48(FP), AX
	VMOVUPD  (AX), Z10
	VPMOVQ2M Z10, K1
	MOVQ     x_base+72(FP), SI
	MOVQ     y_base+96(FP), DI
	MOVQ     stride+120(FP), BX
	SHLQ     $3, BX
	MOVQ     rows+128(FP), CX
	VXORPD   Z4, Z4, Z4              // fresh a acc, per lane
	VXORPD   Z5, Z5, Z5              // fresh b acc, per lane

rgb8loop:
	VMOVUPD     (SI), Z2
	VMOVUPD     (DI), Z3
	VMULPD      Z0, Z2, Z7
	VMULPD      Z1, Z3, Z8
	VSUBPD      Z8, Z7, Z7           // xr
	VMULPD      Z1, Z2, Z8
	VMULPD      Z0, Z3, Z9
	VADDPD      Z9, Z8, Z8           // yr
	VMOVUPD     Z7, K1, (SI)         // masked lanes keep their bytes
	VMOVUPD     Z8, K1, (DI)
	VFMADD231PD Z7, Z7, K1, Z4       // a += xr*xr, active lanes only
	VFMADD231PD Z8, Z8, K1, Z5       // b += yr*yr
	ADDQ        BX, SI
	ADDQ        BX, DI
	DECQ        CX
	JNZ         rgb8loop
	MOVQ    a_base+136(FP), AX
	MOVQ    b_base+160(FP), DX
	VMOVUPD Z4, K1, (AX)             // masked lanes keep carried norms
	VMOVUPD Z5, K1, (DX)
	VZEROUPPER
	RET

// func rotateGramNextBatch8AVX512(c, s, mask, x, y, yn []float64, stride, rows int64, a, b, g []float64)
TEXT ·rotateGramNextBatch8AVX512(SB), NOSPLIT, $0-232
	MOVQ     c_base+0(FP), AX
	VMOVUPD  (AX), Z0
	MOVQ     s_base+24(FP), AX
	VMOVUPD  (AX), Z1
	MOVQ     mask_base+48(FP), AX
	VMOVUPD  (AX), Z10
	VPMOVQ2M Z10, K1
	MOVQ     x_base+72(FP), SI
	MOVQ     y_base+96(FP), DI
	MOVQ     yn_base+120(FP), DX
	MOVQ     stride+144(FP), BX
	SHLQ     $3, BX
	MOVQ     rows+152(FP), CX
	VXORPD   Z4, Z4, Z4              // fresh a acc, per lane
	VXORPD   Z5, Z5, Z5              // fresh b acc, per lane
	VXORPD   Z6, Z6, Z6              // lookahead gamma acc, per lane

rgn8loop:
	VMOVUPD     (SI), Z2
	VMOVUPD     (DI), Z3
	VMULPD      Z0, Z2, Z7
	VMULPD      Z1, Z3, Z8
	VSUBPD      Z8, Z7, Z7           // xr
	VMULPD      Z1, Z2, Z8
	VMULPD      Z0, Z3, Z9
	VADDPD      Z9, Z8, Z8           // yr
	VMOVUPD     Z7, K1, (SI)         // masked lanes keep their bytes
	VMOVUPD     Z8, K1, (DI)
	VMOVAPD     Z7, K1, Z2           // Z2 = the pair's final x bytes per lane
	VMOVUPD     (DX), Z9             // ynext
	VFMADD231PD Z7, Z7, K1, Z4       // a += xr*xr, active lanes only
	VFMADD231PD Z8, Z8, K1, Z5       // b += yr*yr
	VFMADD231PD Z9, Z2, Z6           // g += x_final*ynext, every lane
	ADDQ        BX, SI
	ADDQ        BX, DI
	ADDQ        BX, DX
	DECQ        CX
	JNZ         rgn8loop
	MOVQ    a_base+160(FP), AX
	VMOVUPD Z4, K1, (AX)             // masked lanes keep carried norms
	MOVQ    b_base+184(FP), AX
	VMOVUPD Z5, K1, (AX)
	MOVQ    g_base+208(FP), AX
	VMOVUPD Z6, (AX)                 // gamma is current-bytes for every lane
	VZEROUPPER
	RET

// func decideRelBatch8AVX512(alpha, beta, gamma, p, rel []float64)
// The observation half of the rotation decision over 8 lanes, bit-identical
// per lane to LaneScratch.decide's scalar chain: every op is an IEEE
// correctly-rounded mul/div/sqrt or a bitwise abs — no FMA, no
// reassociation. Outputs the alpha*beta products (the caller's denom>0
// guard tests p>0, equivalent to sqrt(p)>0) and the raw rel values
// (garbage Inf/NaN when p == 0 — guarded off by the caller). Split from
// the c/s half so an all-skip pair — the common case near convergence —
// never pays the rotation chain's serial div/sqrt latency.
TEXT ·decideRelBatch8AVX512(SB), NOSPLIT, $0-120
	MOVQ alpha_base+0(FP), AX
	VMOVUPD (AX), Z0                 // alpha
	MOVQ beta_base+24(FP), AX
	VMOVUPD (AX), Z1                 // beta
	MOVQ gamma_base+48(FP), AX
	VMOVUPD (AX), Z2                 // gamma

	VPTERNLOGQ $0xFF, Z6, Z6, Z6     // all-ones
	VPSRLQ     $1, Z6, Z7            // abs mask (clear sign bit)

	// p = alpha*beta; rel = |gamma| / sqrt(p)
	VMULPD  Z1, Z0, Z5
	MOVQ    p_base+72(FP), AX
	VMOVUPD Z5, (AX)
	VSQRTPD Z5, Z5
	VPANDQ  Z7, Z2, Z8
	VDIVPD  Z5, Z8, Z9
	MOVQ    rel_base+96(FP), AX
	VMOVUPD Z9, (AX)
	VZEROUPPER
	RET

// func decideCSBatch8AVX512(alpha, beta, gamma, c, s []float64)
// The rotation half: c/s for every lane (garbage for lanes the caller
// masks; consumers blend by mask, matching the scalar path's stale-value
// convention). Same IEEE-exact op sequence as the scalar chain, so each
// rotating lane's (c, s) is bit-identical to ComputeRotation.
TEXT ·decideCSBatch8AVX512(SB), NOSPLIT, $0-120
	MOVQ alpha_base+0(FP), AX
	VMOVUPD (AX), Z0                 // alpha
	MOVQ beta_base+24(FP), AX
	VMOVUPD (AX), Z1                 // beta
	MOVQ gamma_base+48(FP), AX
	VMOVUPD (AX), Z2                 // gamma

	VPTERNLOGQ $0xFF, Z6, Z6, Z6     // all-ones
	VPSRLQ     $1, Z6, Z7            // abs mask (clear sign bit)
	VPSLLQ     $63, Z6, Z11          // sign mask
	MOVQ       $0x3FF0000000000000, BX
	VPBROADCASTQ BX, Z12             // 1.0

	// zeta = (beta-alpha)/(gamma+gamma) + 0  (the +0 folds -0 into the
	// positive branch, exactly like the scalar form)
	VSUBPD  Z0, Z1, Z13              // beta - alpha
	VADDPD  Z2, Z2, Z14              // 2*gamma (exact doubling)
	VDIVPD  Z14, Z13, Z13
	VXORPD  Z15, Z15, Z15
	VADDPD  Z15, Z13, Z13

	// t = copysign(1/(|zeta| + sqrt(1 + zeta^2)), zeta)
	VPANDQ  Z7, Z13, Z16             // |zeta|
	VMULPD  Z13, Z13, Z17
	VADDPD  Z12, Z17, Z17            // 1 + zeta^2
	VSQRTPD Z17, Z17
	VADDPD  Z16, Z17, Z17
	VDIVPD  Z17, Z12, Z19            // 1/(...)
	VPANDQ  Z7, Z19, Z19
	VPANDQ  Z11, Z13, Z21            // sign(zeta)
	VPORQ   Z21, Z19, Z19            // t

	// c = 1/sqrt(1 + t^2); s = t*c
	VMULPD  Z19, Z19, Z22
	VADDPD  Z12, Z22, Z22
	VSQRTPD Z22, Z22
	VDIVPD  Z22, Z12, Z23
	VMULPD  Z23, Z19, Z24
	MOVQ    c_base+72(FP), AX
	VMOVUPD Z23, (AX)
	MOVQ    s_base+96(FP), AX
	VMOVUPD Z24, (AX)
	VZEROUPPER
	RET
