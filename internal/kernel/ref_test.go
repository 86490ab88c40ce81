package kernel

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/matrix"
)

// rotatePairThreePass is the reference kernel in its original textbook
// form: three matrix.Dot passes for the Gram entries, then Rotation.Apply
// on the working pair and on the factor pair. RotatePairRef must match it
// bit for bit.
func rotatePairThreePass(ai, aj, ui, uj []float64, conv *Conv) {
	alpha := matrix.Dot(ai, ai)
	beta := matrix.Dot(aj, aj)
	gamma := matrix.Dot(ai, aj)
	rel := RelOff(alpha, beta, gamma)
	if rel <= SkipEps {
		conv.Observe(rel, gamma, false)
		return
	}
	r := ComputeRotation(alpha, beta, gamma)
	r.Apply(ai, aj)
	r.Apply(ui, uj)
	conv.Observe(rel, gamma, true)
}

// sameBits reports whether two columns are equal bit for bit.
func sameBits(x, y []float64) bool {
	if len(x) != len(y) {
		return false
	}
	for k := range x {
		if math.Float64bits(x[k]) != math.Float64bits(y[k]) {
			return false
		}
	}
	return true
}

// sameConv reports whether two trackers are equal bit for bit.
func sameConv(a, b Conv) bool {
	return math.Float64bits(a.MaxRel) == math.Float64bits(b.MaxRel) &&
		math.Float64bits(a.OffSq) == math.Float64bits(b.OffSq) &&
		a.Rotations == b.Rotations && a.Pairs == b.Pairs
}

// checkAgainstThreePass runs RotatePairRef and the three-pass oracle on
// copies of the same pair and fails on any differing bit of the columns,
// the factor columns or the tracker.
func checkAgainstThreePass(t *testing.T, label string, ai, aj, ui, uj []float64, conv Conv) {
	t.Helper()
	cp := func(c []float64) []float64 { return append([]float64(nil), c...) }
	gi, gj, gui, guj := cp(ai), cp(aj), cp(ui), cp(uj)
	wi, wj, wui, wuj := cp(ai), cp(aj), cp(ui), cp(uj)
	gc, wc := conv, conv
	RotatePairRef(gi, gj, gui, guj, &gc)
	rotatePairThreePass(wi, wj, wui, wuj, &wc)
	if !sameBits(gi, wi) || !sameBits(gj, wj) {
		t.Fatalf("%s: working columns differ from the three-pass oracle", label)
	}
	if !sameBits(gui, wui) || !sameBits(guj, wuj) {
		t.Fatalf("%s: factor columns differ from the three-pass oracle", label)
	}
	if !sameConv(gc, wc) {
		t.Fatalf("%s: Conv %+v, oracle %+v", label, gc, wc)
	}
}

// TestRotatePairRefBitIdentical: RotatePairRef reproduces the three-pass
// oracle bit for bit on every column height n = 1..300 (covering the scalar
// tails below simdMin and every residue of the vector width), with factor
// columns of a different height, on both the rotation and the skip path,
// under every dispatch arm.
func TestRotatePairRefBitIdentical(t *testing.T) {
	forEachArm(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(19))
		for n := 1; n <= 300; n++ {
			fm := (n*7)%300 + 1
			ai, aj := randCol(n, rng), randCol(n, rng)
			scale := math.Ldexp(1, rng.Intn(41)-20)
			for k := range aj {
				aj[k] *= scale
			}
			ui, uj := randCol(fm, rng), randCol(fm, rng)
			conv := Conv{MaxRel: rng.Float64() * 1e-3, OffSq: rng.Float64(), Rotations: n, Pairs: 2 * n}
			checkAgainstThreePass(t, "rotate", ai, aj, ui, uj, conv)

			// An orthogonalized pair takes the skip path.
			var warm Conv
			rotatePairThreePass(ai, aj, ui, uj, &warm)
			checkAgainstThreePass(t, "rotated", ai, aj, ui, uj, conv)

			// An exactly orthogonal pair (disjoint supports) always skips.
			zi, zj := make([]float64, n), make([]float64, n)
			zi[0] = ai[0]
			if n > 1 {
				zj[n-1] = aj[n-1]
			}
			checkAgainstThreePass(t, "orthogonal", zi, zj, ui, uj, conv)
		}
	})
}
