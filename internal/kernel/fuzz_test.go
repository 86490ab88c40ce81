package kernel

import (
	"math"
	"testing"
)

// fuzzCol decodes a height-n column from the fuzzer's bytes: value k is the
// big-endian uint64 at byte (off+k)·8, wrapping around data (all zeros when
// data is empty), with NaN, ±Inf and magnitudes above 1e100 replaced by a
// value in [-1, 1).
func fuzzCol(data []byte, off, n int) []float64 {
	c := make([]float64, n)
	for k := range c {
		idx := off + k
		var v uint64
		if len(data) > 0 {
			for b := 0; b < 8; b++ {
				v = v<<8 | uint64(data[(idx*8+b)%len(data)])
			}
		}
		x := math.Float64frombits(v)
		if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
			x = float64(v%2048)/1024 - 1
		}
		c[k] = x
	}
	return c
}

// FuzzRotatePairFused drives the fused pair-rotation kernel against the
// retained reference implementation on fuzzer-chosen columns. The corpus
// bytes decode to a column height (forcing both SIMD and tail code paths)
// and the column contents.
//
// Checked properties:
//
//   - finiteness: finite input never produces NaN/Inf on the fused path;
//   - energy: the pair's joint squared norm is invariant under the fused
//     rotation (orthogonality of the rotation, regardless of conditioning);
//   - agreement: the fused columns track the reference columns within a
//     condition-aware tolerance. The rotation angle θ solves
//     tan(2θ) = 2γ/(β−α), so an input perturbation E moves θ by
//     ~E/hypot(β−α, 2γ) and the columns by that times their magnitude.
//     With E = 4n·eps·(α+β) (the documented reassociation budget) the
//     tolerance adapts to the pair's conditioning; when the fuzzer finds a
//     pair sitting within the budget of the skip threshold — where one
//     path may rotate and the other skip, the documented rotation-count
//     caveat — agreement is not required (energy and finiteness still
//     are).
func FuzzRotatePairFused(f *testing.F) {
	f.Add(uint8(16), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(7), []byte{9, 8, 7, 6, 5})
	f.Add(uint8(4), []byte{0, 0, 0, 0, 0, 0, 0, 0, 63, 0, 0, 0, 0, 0, 0, 0})
	f.Add(uint8(3), []byte{})
	f.Fuzz(func(t *testing.T, rawN uint8, data []byte) {
		n := int(rawN)%64 + 1
		aiR, ajR := fuzzCol(data, 0, n), fuzzCol(data, 1, n)
		uiR := make([]float64, n)
		ujR := make([]float64, n)
		uiR[0] = 1
		if n > 1 {
			ujR[1] = 1
		}
		aiF := append([]float64(nil), aiR...)
		ajF := append([]float64(nil), ajR...)
		uiF := append([]float64(nil), uiR...)
		ujF := append([]float64(nil), ujR...)

		alpha, beta, gamma := GramRef(aiR, ajR)
		var cR, cF Conv
		RotatePairRef(aiR, ajR, uiR, ujR, &cR)
		RotatePairFused(aiF, ajF, uiF, ujF, &cF)

		for k := 0; k < n; k++ {
			for _, v := range []float64{aiF[k], ajF[k], uiF[k], ujF[k]} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("fused kernel produced non-finite value at row %d", k)
				}
			}
		}

		// Energy preservation on the fused path.
		a2, b2, _ := GramRef(aiF, ajF)
		before := alpha + beta
		after := a2 + b2
		if math.Abs(before-after) > 1e-9*(before+1) {
			t.Fatalf("fused rotation changed pair energy: %g -> %g", before, after)
		}

		// Contract: when the fused kernel rotates, it leaves the pair
		// (numerically) orthogonal — the rotation zeroes the computed gamma
		// up to the roundoff of the pass. The residual bound is absolute in
		// the pair's energy: for very anisotropic pairs (alpha >> beta) the
		// roundoff of the dominant column legitimately swamps the small
		// column's scale. Skipped pairs (including the underflow regime
		// where sqrt(alpha·beta) vanishes and RelOff reports 0 on both
		// paths) leave the columns untouched and carry no contract.
		const eps = 2.220446049250313e-16
		if cF.Rotations == 1 {
			ga, gb, gg := GramRef(aiF, ajF)
			if math.Abs(gg) > SkipEps*math.Sqrt(ga*gb)+64*float64(n)*eps*(alpha+beta) {
				t.Fatalf("fused kernel left the pair unorthogonalized: |gamma'| %g (energy %g)", math.Abs(gg), alpha+beta)
			}
		}

		// Agreement with the reference, condition-aware. Two regimes are
		// inherently ambiguous and exempt (the documented caveats):
		//
		//   - the skip decision: |gamma| within the reassociation budget of
		//     the threshold may rotate on one path and skip on the other;
		//   - the rotation branch: at alpha ≈ beta the orthogonalizing
		//     rotation is non-unique (±45° both valid) and the smaller-angle
		//     formulation picks by sign(beta−alpha), which an eps-level
		//     perturbation can flip.
		budgetE := 4 * float64(n) * eps * (alpha + beta)
		denom := math.Sqrt(alpha * beta)
		if math.Abs(math.Abs(gamma)-SkipEps*denom) <= budgetE {
			return
		}
		if cR.Rotations != cF.Rotations {
			t.Fatalf("skip decisions diverged on a well-separated pair: |gamma|=%g, threshold=%g, budget=%g",
				math.Abs(gamma), SkipEps*denom, budgetE)
		}
		if math.Abs(beta-alpha) <= 64*budgetE {
			return
		}
		// First-order angle sensitivity: tan(2θ) = 2γ/(β−α), so a Gram
		// perturbation E moves θ by ~E/hypot(β−α, 2γ) and the columns by
		// that times their magnitude.
		h := math.Hypot(beta-alpha, 2*gamma)
		colScale := math.Sqrt(alpha+beta) + 1
		tol := 64*(budgetE/h)*colScale + 1e-12*colScale
		for k := 0; k < n; k++ {
			for _, pair := range [][2]float64{{aiR[k], aiF[k]}, {ajR[k], ajF[k]}, {uiR[k], uiF[k]}, {ujR[k], ujF[k]}} {
				if d := math.Abs(pair[0] - pair[1]); d > tol {
					t.Fatalf("row %d: fused drifts %g from reference (tol %g, h %g)", k, d, tol, h)
				}
			}
		}
	})
}

// FuzzRotatePairRef drives the reference pair-rotation kernel against the
// three-pass oracle (rotatePairThreePass) on fuzzer-chosen columns: the
// working columns, the factor columns (of an independent height) and the
// Conv tracker must match bit for bit, under every dispatch arm.
func FuzzRotatePairRef(f *testing.F) {
	f.Add(uint16(16), uint16(16), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint16(7), uint16(33), []byte{9, 8, 7, 6, 5})
	f.Add(uint16(255), uint16(3), []byte{0, 0, 0, 0, 0, 0, 0, 0, 63, 0, 0, 0, 0, 0, 0, 0})
	f.Add(uint16(3), uint16(1), []byte{})
	f.Fuzz(func(t *testing.T, rawN, rawFM uint16, data []byte) {
		n := int(rawN)%300 + 1
		fm := int(rawFM)%300 + 1
		ai, aj := fuzzCol(data, 0, n), fuzzCol(data, n, n)
		ui, uj := fuzzCol(data, 2*n, fm), fuzzCol(data, 2*n+fm, fm)
		forEachArm(t, func(t *testing.T) {
			checkAgainstThreePass(t, "fuzz", ai, aj, ui, uj, Conv{})
		})
	})
}
