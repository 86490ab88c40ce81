package kernel

import (
	"encoding/binary"
	"math"
	"math/rand"
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
// retained reference implementation on fuzzer-chosen columns, under every
// dispatch arm. The corpus bytes decode to a column height (forcing both
// SIMD and tail code paths) and the column contents.
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
		forEachArm(t, func(t *testing.T) {
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

// FuzzCrossFused drives the fused block pairings (Scratch.Cross and
// Scratch.Within) against the reference pairing on fuzzer-chosen blocks,
// under every dispatch arm. The corpus bytes decode to two block widths
// (1..6), a working height and a factor height (1..150, so every vector
// group, remainder group and scalar tail of each arm is reached) and the
// column contents.
//
// The pairing-level properties are FuzzRotatePairFused's: finiteness,
// energy (each block's total squared norm, working and factor, is
// invariant), matching pair counts, and condition-aware agreement with the
// same two exemptions. Agreement is tracked pair by pair through a replay
// of the reference pairing (checkFusedPairing), because a pair's angle
// error moves the columns that later pairs read.
func FuzzCrossFused(f *testing.F) {
	f.Add(uint8(2), uint8(3), uint8(40), uint8(24), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(5), uint8(5), uint8(136), uint8(17), []byte{9, 8, 7, 6, 5})
	f.Add(uint8(0), uint8(3), uint8(23), uint8(72), []byte{0, 0, 0, 0, 0, 0, 0, 0, 63, 0, 0, 0, 0, 0, 0, 0})
	f.Add(uint8(1), uint8(0), uint8(2), uint8(0), []byte{})
	// A well-scaled seed: every word is a NaN pattern, which fuzzCol maps
	// to a value in [-1, 1), so the pairing stays clear of the exemptions
	// and plain `go test` checks agreement on every arm.
	rng := rand.New(rand.NewSource(23))
	scaled := make([]byte, 8*2048)
	for k := 0; k < len(scaled); k += 8 {
		binary.BigEndian.PutUint64(scaled[k:], 0x7ff8<<48|uint64(rng.Intn(2048)))
	}
	f.Add(uint8(5), uint8(3), uint8(135), uint8(41), scaled)
	f.Fuzz(func(t *testing.T, rawW1, rawW2, rawN, rawFM uint8, data []byte) {
		w1, w2 := int(rawW1)%6+1, int(rawW2)%6+1
		n, fm := int(rawN)%150+1, int(rawFM)%150+1
		a := make([][]float64, w1+w2)
		u := make([][]float64, w1+w2)
		for i := range a {
			a[i] = fuzzCol(data, i*n, n)
			u[i] = fuzzCol(data, (w1+w2)*n+i*fm, fm)
		}
		// Cross pairs block x = a[:w1] with block y = a[w1:], i outer, j
		// inner; Within pairs block x with itself in ascending (i, j).
		var cross, within [][2]int
		for i := 0; i < w1; i++ {
			for j := 0; j < w2; j++ {
				cross = append(cross, [2]int{i, w1 + j})
			}
			for j := i + 1; j < w1; j++ {
				within = append(within, [2]int{i, j})
			}
		}
		forEachArm(t, func(t *testing.T) {
			var sc Scratch
			checkFusedPairing(t, "cross", a, u, cross, func(a, u [][]float64, conv *Conv) {
				sc.Cross(a[:w1], u[:w1], a[w1:], u[w1:], conv)
			})
			checkFusedPairing(t, "within", a[:w1], u[:w1], within, func(a, u [][]float64, conv *Conv) {
				sc.Within(a, u, conv)
			})
		})
	})
}

// checkFusedPairing runs fused on copies of the columns (a, u) and checks
// it against the reference pairing that visits pairs in order. A replay of
// the reference pairing carries a first-order error bound per column. At a
// rotated pair (i, j) the Gram entries are off by at most the reassociation
// budget plus 2·‖(x, y)‖·(err_i + err_j) from earlier pairs, the angle by
// twice that over hypot(β−α, 2γ), and both columns by their summed errors
// plus the angle error times ‖(x, y)‖. A pair inside an exempt regime —
// the skip threshold or the α ≈ β branch, within 64x its Gram error — makes
// its columns' bounds infinite, and so every column it later reaches. At
// the end every element must agree within 64x its column's bound (the
// margin FuzzRotatePairFused uses); finiteness, energy and the pair count
// are checked regardless, and the rotation count when no pair was exempt.
func checkFusedPairing(t *testing.T, label string, a0, u0 [][]float64, pairs [][2]int, fused func(a, u [][]float64, conv *Conv)) {
	t.Helper()
	clone := func(cols [][]float64) [][]float64 {
		out := make([][]float64, len(cols))
		for i, c := range cols {
			out[i] = append([]float64(nil), c...)
		}
		return out
	}
	energy := func(cols ...[]float64) float64 {
		e := 0.0
		for _, c := range cols {
			for _, v := range c {
				e += v * v
			}
		}
		return e
	}
	aR, uR, aF, uF := clone(a0), clone(u0), clone(a0), clone(u0)
	var cR, cF Conv
	fused(aF, uF, &cF)

	for _, cols := range [][][]float64{aF, uF} {
		for i, c := range cols {
			for k, v := range c {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%s: fused pairing produced non-finite value at col %d row %d", label, i, k)
				}
			}
		}
	}
	for _, m := range [][2][][]float64{{a0, aF}, {u0, uF}} {
		before, after := energy(m[0]...), energy(m[1]...)
		if math.Abs(before-after) > 1e-9*(before+1) {
			t.Fatalf("%s: fused pairing changed block energy: %g -> %g", label, before, after)
		}
	}

	n := len(a0[0])
	errA := make([]float64, len(a0))
	errU := make([]float64, len(u0))
	exempt := false
	for _, p := range pairs {
		i, j := p[0], p[1]
		alpha, beta, gamma := GramRef(aR[i], aR[j])
		rotated := cR.Rotations
		RotatePairRef(aR[i], aR[j], uR[i], uR[j], &cR)
		s := math.Sqrt(alpha + beta)
		e := epsBudget(n, alpha+beta) + 2*s*(errA[i]+errA[j])
		if math.Abs(math.Abs(gamma)-SkipEps*math.Sqrt(alpha*beta)) <= 64*e ||
			(cR.Rotations != rotated && math.Abs(beta-alpha) <= 64*e) {
			exempt = true
			errA[i], errA[j] = math.Inf(1), math.Inf(1)
			errU[i], errU[j] = math.Inf(1), math.Inf(1)
			continue
		}
		if cR.Rotations == rotated {
			continue
		}
		dTheta := 2 * e / math.Hypot(beta-alpha, 2*gamma)
		ea := errA[i] + errA[j] + dTheta*s
		eu := errU[i] + errU[j] + dTheta*math.Sqrt(energy(uR[i], uR[j]))
		errA[i], errA[j] = ea, ea
		errU[i], errU[j] = eu, eu
	}
	if cF.Pairs != cR.Pairs {
		t.Fatalf("%s: fused visited %d pairs, reference %d", label, cF.Pairs, cR.Pairs)
	}
	if !exempt && cF.Rotations != cR.Rotations {
		t.Fatalf("%s: fused rotated %d pairs, reference %d, with every decision well separated",
			label, cF.Rotations, cR.Rotations)
	}
	for _, m := range []struct {
		got, want [][]float64
		err       []float64
	}{{aF, aR, errA}, {uF, uR, errU}} {
		floor := 1e-12 * (math.Sqrt(energy(m.want...)) + 1)
		for i := range m.want {
			tol := 64*m.err[i] + floor
			for k := range m.want[i] {
				if d := math.Abs(m.got[i][k] - m.want[i][k]); d > tol {
					t.Fatalf("%s: col %d row %d: fused drifts %g from reference (tol %g)",
						label, i, k, d, tol)
				}
			}
		}
	}
}
