package jacobi

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/engine"
	"repro/internal/matrix"
)

// A rotation computed from (α, β, γ) must zero the rotated pair's inner
// product: (c·x - s·y)ᵀ(s·x + c·y) = 0.
func TestComputeRotationOrthogonalizes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 3 + rng.Intn(20)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		alpha := matrix.Dot(x, x)
		beta := matrix.Dot(y, y)
		gamma := matrix.Dot(x, y)
		r := engine.ComputeRotation(alpha, beta, gamma)
		r.Apply(x, y)
		if g := math.Abs(matrix.Dot(x, y)); g > 1e-10*(alpha+beta) {
			t.Fatalf("trial %d: residual inner product %g", trial, g)
		}
	}
}

// Rotations are orthogonal: c² + s² = 1 and norms are preserved jointly:
// α' + β' = α + β.
func TestRotationPreservesEnergy(t *testing.T) {
	// Restrict inputs to the physical domain of Gram triples: α, β >= 0,
	// |γ| <= sqrt(αβ) (Cauchy-Schwarz), with magnitudes far from overflow.
	f := func(ra, rb, rg float64) bool {
		if math.IsNaN(ra) || math.IsNaN(rb) || math.IsNaN(rg) {
			return true
		}
		a := math.Mod(math.Abs(ra), 1e6)
		b := math.Mod(math.Abs(rb), 1e6)
		g := math.Mod(rg, 1.0) * math.Sqrt(a*b)
		r := engine.ComputeRotation(a, b, g)
		return math.Abs(r.C*r.C+r.S*r.S-1) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}

	rng := rand.New(rand.NewSource(6))
	x := []float64{1, 2, 3}
	y := []float64{-1, 0.5, 2}
	before := matrix.Dot(x, x) + matrix.Dot(y, y)
	r := engine.ComputeRotation(matrix.Dot(x, x), matrix.Dot(y, y), matrix.Dot(x, y))
	r.Apply(x, y)
	after := matrix.Dot(x, x) + matrix.Dot(y, y)
	if math.Abs(before-after) > 1e-12*before {
		t.Errorf("energy changed: %g -> %g", before, after)
	}
	_ = rng
}

func TestComputeRotationZeroGamma(t *testing.T) {
	r := engine.ComputeRotation(2, 3, 0)
	if r.C != 1 || r.S != 0 {
		t.Errorf("zero gamma should give identity rotation, got %+v", r)
	}
}

// The smaller-angle choice keeps |s| <= c, which is what guarantees
// convergence of the Jacobi process.
func TestComputeRotationSmallAngle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		a := rng.Float64() * 10
		b := rng.Float64() * 10
		g := (rng.Float64() - 0.5) * 10
		if g == 0 {
			continue
		}
		r := engine.ComputeRotation(a, b, g)
		if math.Abs(r.S) > r.C+1e-15 {
			t.Fatalf("|s| > c: %+v for (%g,%g,%g)", r, a, b, g)
		}
	}
}

func TestRotatePairSkipsTiny(t *testing.T) {
	var conv engine.ConvTracker
	x := []float64{1, 0}
	y := []float64{0, 1}
	ux := []float64{1, 0}
	uy := []float64{0, 1}
	engine.RotatePair(x, y, ux, uy, &conv)
	if conv.Rotations != 0 {
		t.Error("orthogonal pair should not rotate")
	}
	if conv.Pairs != 1 {
		t.Error("pair not counted")
	}
	if x[0] != 1 || y[1] != 1 {
		t.Error("columns modified")
	}
}

func TestConvTrackerMerge(t *testing.T) {
	a := engine.ConvTracker{MaxRel: 0.5, Rotations: 3, Pairs: 10}
	b := engine.ConvTracker{MaxRel: 0.7, Rotations: 2, Pairs: 5}
	a.Merge(b)
	if a.MaxRel != 0.7 || a.Rotations != 5 || a.Pairs != 15 {
		t.Errorf("merge result %+v", a)
	}
}

// RotatePair on a zero column: denominator zero, must not NaN or rotate.
func TestRotatePairZeroColumn(t *testing.T) {
	var conv engine.ConvTracker
	x := []float64{0, 0}
	y := []float64{1, 2}
	ux := []float64{1, 0}
	uy := []float64{0, 1}
	engine.RotatePair(x, y, ux, uy, &conv)
	if conv.Rotations != 0 {
		t.Error("zero column should not rotate")
	}
	for _, v := range append(append([]float64{}, x...), y...) {
		if math.IsNaN(v) {
			t.Fatal("NaN produced")
		}
	}
}
