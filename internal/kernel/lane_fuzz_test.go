package kernel

import (
	"math"
	"testing"
)

// FuzzRotatePairBatch drives one batched pair rotation (the lane path's
// unit of work: batch Gram dots, per-lane decision, masked fused
// application) against the retained reference kernel on fuzzer-chosen
// lanes. The corpus bytes decode to a lane width, a column height (forcing
// vector groups, group+tail mixes, and pure generic tails) and the lane
// contents; one fuzzer-chosen lane is masked inactive.
//
// Checked properties, per lane:
//
//   - finiteness: finite input never produces NaN/Inf on the lane path;
//   - isolation: the masked lane's bytes are untouched and its tracker
//     never observed, whatever its lane mates do;
//   - energy: a rotated lane's joint squared norm is invariant;
//   - orthogonality: a rotated lane comes out numerically orthogonal, to
//     the same residual bound as the fused kernel's contract;
//   - agreement: skip decisions match the reference on well-separated
//     pairs (inside the reassociation budget of the threshold the decision
//     is inherently ambiguous — the documented caveat, exempt here exactly
//     as in FuzzRotatePairFused).
func FuzzRotatePairBatch(f *testing.F) {
	f.Add(uint8(4), uint8(16), uint8(0), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(1), uint8(7), uint8(0), []byte{9, 8, 7, 6, 5})
	f.Add(uint8(8), uint8(32), uint8(3), []byte{0, 0, 0, 0, 0, 0, 0, 63})
	f.Add(uint8(6), uint8(5), uint8(5), []byte{})
	f.Fuzz(func(t *testing.T, rawK, rawN, rawMask uint8, data []byte) {
		K := int(rawK)%8 + 1
		n := int(rawN)%64 + 1
		masked := int(rawMask) % K
		px := make([][]float64, K)
		py := make([][]float64, K)
		for k := 0; k < K; k++ {
			px[k] = fuzzCol(data, 2*k, n)
			py[k] = fuzzCol(data, 2*k+1, n)
		}
		lx := make([]float64, n*K)
		ly := make([]float64, n*K)
		Interleave(lx, px, K)
		Interleave(ly, py, K)
		lux := make([]float64, n*K)
		luy := make([]float64, n*K)
		for k := 0; k < K; k++ {
			lux[0*K+k] = 1
			if n > 1 {
				luy[1*K+k] = 1
			}
		}
		active := allActive(K)
		active[masked] = laneMasked

		sc := NewLaneScratch(K, false)
		conv := make([]Conv, K)
		sc.Within([][]float64{lx, ly}, [][]float64{lux, luy}, nil, active, conv)

		gx := make([]float64, n)
		gy := make([]float64, n)
		const eps = 2.220446049250313e-16
		for k := 0; k < K; k++ {
			Deinterleave(gx, lx, K, k)
			Deinterleave(gy, ly, K, k)

			if k == masked {
				for r := 0; r < n; r++ {
					if math.Float64bits(gx[r]) != math.Float64bits(px[k][r]) ||
						math.Float64bits(gy[r]) != math.Float64bits(py[k][r]) {
						t.Fatalf("masked lane %d row %d: bytes changed", k, r)
					}
				}
				if conv[k] != (Conv{}) {
					t.Fatalf("masked lane %d: tracker observed %+v", k, conv[k])
				}
				continue
			}

			for r := 0; r < n; r++ {
				if math.IsNaN(gx[r]) || math.IsInf(gx[r], 0) || math.IsNaN(gy[r]) || math.IsInf(gy[r], 0) {
					t.Fatalf("lane %d row %d: non-finite value", k, r)
				}
			}

			alpha, beta, gamma := GramRef(px[k], py[k])
			a2, b2, g2 := GramRef(gx, gy)
			before := alpha + beta
			after := a2 + b2
			if math.Abs(before-after) > 1e-9*(before+1) {
				t.Fatalf("lane %d: rotation changed pair energy %g -> %g", k, before, after)
			}
			if conv[k].Rotations == 1 {
				if math.Abs(g2) > SkipEps*math.Sqrt(a2*b2)+64*float64(n)*eps*(alpha+beta) {
					t.Fatalf("lane %d: pair left unorthogonalized: |gamma'| %g (energy %g)", k, math.Abs(g2), alpha+beta)
				}
			}

			// Skip-decision agreement away from the ambiguous band.
			budgetE := 4 * float64(n) * eps * (alpha + beta)
			denom := math.Sqrt(alpha * beta)
			if math.Abs(math.Abs(gamma)-SkipEps*denom) <= budgetE {
				continue
			}
			refRot := 0
			if RelOff(alpha, beta, gamma) > SkipEps {
				refRot = 1
			}
			if conv[k].Rotations != refRot {
				t.Fatalf("lane %d: skip decision diverged on a well-separated pair: |gamma|=%g threshold=%g budget=%g",
					k, math.Abs(gamma), SkipEps*denom, budgetE)
			}
		}
	})
}
