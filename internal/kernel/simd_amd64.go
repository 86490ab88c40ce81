package kernel

// SIMD dispatch on amd64: when the host has AVX2 and FMA (and the OS saves
// YMM state), the kernels run the hand-written vector routines in
// simd_amd64.s over the 4-aligned prefix and finish the tail in Go;
// otherwise they fall back to the portable generic loops. The reference
// path dispatches only the rotation application (applyPair), whose vector
// arm performs exactly the scalar per-element arithmetic with no FMA, so
// the reference results are bit for bit the same on every host and arm.
// Its Gram sums (GramRef) stay scalar: each is one left-to-right
// accumulator chain by definition.
//
// The fused path's vector accumulators are one more reassociation of the
// same products (four lanes + one horizontal reduction, FMA in the
// accumulation), still covered by the package's documented ulp bound; the
// differential suite exercises both dispatch arms. Fused results are
// deterministic for a given host but may differ across hosts with different
// SIMD features — one more reason the clocked backends, whose results the
// paper's experiments compare, stay on the reference path.

// Implemented in simd_amd64.s.
func cpuidex(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)
func sqNormAVX(x []float64) float64
func gammaDotAVX(x, y []float64) float64
func applyPairAVX(c, s float64, x, y []float64)
func rotateGramAVX(c, s float64, x, y []float64) (a, b float64)
func rotateGramNextAVX(c, s float64, x, y, yn []float64) (a, b, gam float64)

// useAVX gates the vector arm. It is a variable (not a constant) so the
// differential tests can force the generic arm on any host.
var useAVX = detectAVX()

// useAVX512 additionally gates the 8-lane AVX-512 arm of the lane kernels
// (lane_amd64.go): one ZMM register holds the same element of eight jobs,
// and the opmask registers express the lane blend masks natively — masked
// stores leave a masked lane's memory bytes untouched without a blend in
// the data path. The fused (single-job) kernels stay on the AVX2 arm: their
// vectors run along the column, where 256-bit operations already saturate
// the store ports that bound them.
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
	n := len(x) &^ 3
	if !useAVX || n < simdMin {
		return sqNormGeneric(x)
	}
	s := sqNormAVX(x[:n])
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
	n := len(x) &^ 3
	if !useAVX || n < simdMin {
		return gammaDotGeneric(x, y)
	}
	s := gammaDotAVX(x[:n], y[:n])
	for k := n; k < len(x); k++ {
		s += x[k] * y[k]
	}
	return s
}

// applyPair rotates the pair (x, y) in place. Per element it performs
// exactly the reference arithmetic in both dispatch arms (the vector arm
// deliberately avoids FMA here), so it is bit-identical to Rotation.Apply.
// The columns must have equal length.
//
//jacobi:noalloc
func applyPair(c, s float64, x, y []float64) {
	y = y[:len(x)]
	n := len(x) &^ 3
	if !useAVX || n < simdMin {
		applyPairGeneric(c, s, x, y)
		return
	}
	applyPairAVX(c, s, x[:n], y[:n])
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
	n := len(x) &^ 3
	if !useAVX || n < simdMin {
		return rotateGramGeneric(c, s, x, y)
	}
	a, b = rotateGramAVX(c, s, x[:n], y[:n])
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
	n := len(x) &^ 3
	if !useAVX || n < simdMin {
		return rotateGramNextGeneric(c, s, x, y, yn)
	}
	a, b, g = rotateGramNextAVX(c, s, x[:n], y[:n], yn[:n])
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
