package kernel

// SIMD dispatch on amd64: the fused primitives run one of three arms,
// picked by the cpuid probes below.
//
//   - AVX-512 (simd512_amd64.s): eight rows per ZMM register over the
//     8-aligned prefix.
//   - AVX2+FMA (simd_amd64.s): four rows per YMM register over the
//     4-aligned prefix.
//   - generic (fused.go): portable unrolled loops, on hosts with neither.
//
// The vector arms finish the scalar tail in Go. The reference path
// dispatches only the rotation application (applyPair), whose vector arms
// perform exactly the scalar per-element arithmetic with no FMA, so the
// reference results are bit for bit the same on every host and arm. Its
// Gram sums (GramRef) stay scalar: each is one left-to-right accumulator
// chain by definition.
//
// The fused path's vector accumulators are one more reassociation of the
// same products (several registers of four or eight lanes, added pairwise,
// then one horizontal reduction; FMA in the accumulation), still covered
// by the package's documented ulp bound; the differential suite exercises
// every arm. Fused results are deterministic for a given host but differ
// across hosts with different SIMD features — AVX-512 against AVX2 as
// well as AVX2 against generic — one more reason the clocked backends,
// whose results the paper's experiments compare, stay on the reference
// path.

// Implemented in simd_amd64.s.
func cpuidex(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)
func sqNormAVX(x []float64) float64
func gammaDotAVX(x, y []float64) float64
func applyPairAVX(c, s float64, x, y []float64)
func rotateGramAVX(c, s float64, x, y []float64) (a, b float64)
func rotateGramNextAVX(c, s float64, x, y, yn []float64) (a, b, gam float64)

// Implemented in simd512_amd64.s.
func sqNormAVX512(x []float64) float64
func gammaDotAVX512(x, y []float64) float64
func applyPairAVX512(c, s float64, x, y []float64)
func rotateGramAVX512(c, s float64, x, y []float64) (a, b float64)
func rotateGramNextAVX512(c, s float64, x, y, yn []float64) (a, b, gam float64)

// useAVX gates the vector arm. It is a variable (not a constant) so the
// differential tests can force the generic arm on any host.
var useAVX = detectAVX()

// useAVX512 additionally gates the AVX-512 arms. In the lane kernels
// (lane_amd64.go) one ZMM register holds the same element of eight jobs,
// and the opmask registers express the lane blend masks natively — masked
// stores leave a masked lane's memory bytes untouched without a blend in
// the data path. In the fused (single-job) kernels the vectors run along
// the column. Their bound is FP µops, not stores: the rotate-and-
// accumulate step issues 9 FP µops per vector (4 multiplies, an add and a
// subtract for the FMA-free application, 3 FMAs for a, b and the lookahead
// gamma) on the two FP ports, so a ZMM vector moves twice the rows of a
// YMM vector for the same µops. The 4-cycle FMA latency is hidden by
// independent accumulators: two sets in the rotate loops, four in the dot
// loops, which with one chain per quantity ran one element per cycle.
// Medians on a 2-vCPU AVX-512 Xeon: BenchmarkCrossFused512 takes ~585 µs
// on the AVX2 arm and ~395 µs on the AVX-512 arm (~650 µs with one chain),
// its skip path (BenchmarkCrossFusedSkipPath512, GammaDot only) ~110 and
// ~87 µs (~235 µs with one chain).
var useAVX512 = useAVX && detectAVX512()

// detectAVX reports AVX2+FMA with OS-enabled YMM state: CPUID.1:ECX must
// show FMA, OSXSAVE and AVX, XGETBV(0) must show XMM+YMM state saving, and
// CPUID.7:EBX must show AVX2.
func detectAVX() bool {
	_, _, c, _ := cpuidex(1, 0)
	const fma = 1 << 12
	const osxsave = 1 << 27
	const avx = 1 << 28
	if c&fma == 0 || c&osxsave == 0 || c&avx == 0 {
		return false
	}
	xeax, _ := xgetbv0()
	if xeax&0x6 != 0x6 {
		return false
	}
	_, b, _, _ := cpuidex(7, 0)
	return b&(1<<5) != 0
}

// detectAVX512 reports AVX-512 F+DQ with OS-enabled ZMM and opmask state:
// XGETBV(0) must show opmask, ZMM-hi256 and hi16-ZMM saving (bits 5-7) on
// top of the XMM+YMM bits, and CPUID.7:EBX must show AVX512F (bit 16) and
// AVX512DQ (bit 17 — VPMOVQ2M, which turns the sign-bit mask vectors into
// opmasks).
func detectAVX512() bool {
	xeax, _ := xgetbv0()
	if xeax&0xe6 != 0xe6 {
		return false
	}
	_, b, _, _ := cpuidex(7, 0)
	const f = 1 << 16
	const dq = 1 << 17
	return b&f != 0 && b&dq != 0
}

// simdMin is the column height below which vector dispatch is not worth the
// call and reduction overhead.
const simdMin = 16

// SqNorm returns Σ x[k]² (fused-path accumulation).
//
//jacobi:noalloc
func SqNorm(x []float64) float64 {
	if !useAVX || len(x) < simdMin {
		return sqNormGeneric(x)
	}
	var n int
	var s float64
	if useAVX512 {
		n = len(x) &^ 7
		s = sqNormAVX512(x[:n])
	} else {
		n = len(x) &^ 3
		s = sqNormAVX(x[:n])
	}
	for _, v := range x[n:] {
		s += v * v
	}
	return s
}

// GammaDot returns Σ x[k]·y[k] (fused-path accumulation). The columns must
// have equal length.
//
//jacobi:noalloc
func GammaDot(x, y []float64) float64 {
	y = y[:len(x)]
	if !useAVX || len(x) < simdMin {
		return gammaDotGeneric(x, y)
	}
	var n int
	var s float64
	if useAVX512 {
		n = len(x) &^ 7
		s = gammaDotAVX512(x[:n], y[:n])
	} else {
		n = len(x) &^ 3
		s = gammaDotAVX(x[:n], y[:n])
	}
	for k := n; k < len(x); k++ {
		s += x[k] * y[k]
	}
	return s
}

// applyPair rotates the pair (x, y) in place. Per element it performs
// exactly the reference arithmetic in every dispatch arm (the vector arms
// deliberately avoid FMA here), so it is bit-identical to Rotation.Apply.
// The columns must have equal length.
//
//jacobi:noalloc
func applyPair(c, s float64, x, y []float64) {
	y = y[:len(x)]
	if !useAVX || len(x) < simdMin {
		applyPairGeneric(c, s, x, y)
		return
	}
	var n int
	if useAVX512 {
		n = len(x) &^ 7
		applyPairAVX512(c, s, x[:n], y[:n])
	} else {
		n = len(x) &^ 3
		applyPairAVX(c, s, x[:n], y[:n])
	}
	for k := n; k < len(x); k++ {
		x0, y0 := x[k], y[k]
		x[k] = c*x0 - s*y0
		y[k] = s*x0 + c*y0
	}
}

// rotateGram applies the rotation and returns the pair's updated squared
// norms in the same pass.
//
//jacobi:noalloc
func rotateGram(c, s float64, x, y []float64) (a, b float64) {
	y = y[:len(x)]
	if !useAVX || len(x) < simdMin {
		return rotateGramGeneric(c, s, x, y)
	}
	var n int
	if useAVX512 {
		n = len(x) &^ 7
		a, b = rotateGramAVX512(c, s, x[:n], y[:n])
	} else {
		n = len(x) &^ 3
		a, b = rotateGramAVX(c, s, x[:n], y[:n])
	}
	for k := n; k < len(x); k++ {
		xi, yi := x[k], y[k]
		xr := c*xi - s*yi
		yr := s*xi + c*yi
		x[k], y[k] = xr, yr
		a += xr * xr
		b += yr * yr
	}
	return a, b
}

// rotateGramNext applies the rotation and accumulates the updated norms and
// the lookahead dot against ynext in the same pass.
//
//jacobi:noalloc
func rotateGramNext(c, s float64, x, y, ynext []float64) (a, b, g float64) {
	y = y[:len(x)]
	yn := ynext[:len(x)]
	if !useAVX || len(x) < simdMin {
		return rotateGramNextGeneric(c, s, x, y, yn)
	}
	var n int
	if useAVX512 {
		n = len(x) &^ 7
		a, b, g = rotateGramNextAVX512(c, s, x[:n], y[:n], yn[:n])
	} else {
		n = len(x) &^ 3
		a, b, g = rotateGramNextAVX(c, s, x[:n], y[:n], yn[:n])
	}
	for k := n; k < len(x); k++ {
		xi, yi := x[k], y[k]
		xr := c*xi - s*yi
		yr := s*xi + c*yi
		x[k], y[k] = xr, yr
		a += xr * xr
		b += yr * yr
		g += xr * yn[k]
	}
	return a, b, g
}
