package kernel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The reference-kernel differential suite: every fused kernel against the
// reference path, across column heights n = 4..520 (odd and even, including
// non-multiples of the vector width), under the package's documented ulp
// budgets. On amd64 every case runs every dispatch arm the host has
// (generic, AVX2, AVX-512) by toggling useAVX and useAVX512.

// diffHeights is the shape sweep: powers of two to 512 plus odd and
// off-by-one heights that exercise the scalar tails, and heights that end
// in each remainder group of the unrolled vector loops (8 or 24 rows past
// a multiple of 16 or 32 on AVX-512, 4 or 12 rows on AVX2).
var diffHeights = []int{
	4, 5, 7, 8, 13, 16, 17, 20, 24, 31, 32, 33, 40, 48, 64, 72, 100,
	127, 128, 136, 255, 256, 264, 511, 512, 520,
}

// epsBudget returns the documented absolute budget for a reassociated sum
// of n terms with total absolute mass `mass`: 4·n·eps·mass.
func epsBudget(n int, mass float64) float64 {
	return 4 * float64(n) * 2.220446049250313e-16 * mass
}

// randCol returns a height-n column with entries in [-1, 1].
func randCol(n int, rng *rand.Rand) []float64 {
	c := make([]float64, n)
	for i := range c {
		c[i] = 2*rng.Float64() - 1
	}
	return c
}

// forEachArm runs f as a subtest (or sub-benchmark) under every available
// dispatch arm: generic, AVX2 and AVX-512. The fused primitives and the
// lane kernels both dispatch on all three.
func forEachArm[T interface{ Run(string, func(T)) bool }](tb T, f func(T)) {
	type arm struct {
		name        string
		avx, avx512 bool
	}
	arms := []arm{{"generic", false, false}}
	if useAVX {
		arms = append(arms, arm{"avx", true, false})
	}
	if useAVX512 {
		arms = append(arms, arm{"avx512", true, true})
	}
	savedAVX, saved512 := useAVX, useAVX512
	defer func() { useAVX, useAVX512 = savedAVX, saved512 }()
	for _, a := range arms {
		useAVX, useAVX512 = a.avx, a.avx512
		tb.Run(a.name, f)
	}
}

// TestGramMatchesReference: the fused Gram entries (single fused pass, and
// the SqNorm/GammaDot primitives) stay within the documented budget of the
// three reference dot products.
func TestGramMatchesReference(t *testing.T) {
	forEachArm(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		for _, n := range diffHeights {
			x := randCol(n, rng)
			y := randCol(n, rng)
			ar, br, gr := GramRef(x, y)
			for name, got := range map[string][3]float64{
				"Gram":            func() [3]float64 { a, b, g := Gram(x, y); return [3]float64{a, b, g} }(),
				"SqNorm/GammaDot": {SqNorm(x), SqNorm(y), GammaDot(x, y)},
			} {
				if d := math.Abs(got[0] - ar); d > epsBudget(n, ar) {
					t.Errorf("n=%d %s: alpha drift %g > budget %g", n, name, d, epsBudget(n, ar))
				}
				if d := math.Abs(got[1] - br); d > epsBudget(n, br) {
					t.Errorf("n=%d %s: beta drift %g > budget %g", n, name, d, epsBudget(n, br))
				}
				if d := math.Abs(got[2] - gr); d > epsBudget(n, math.Sqrt(ar*br)) {
					t.Errorf("n=%d %s: gamma drift %g > budget %g", n, name, d, epsBudget(n, math.Sqrt(ar*br)))
				}
			}
		}
	})
}

// TestApplyPairBitIdentical: rotation application involves no sums, so the
// fused application must match Rotation.Apply bit for bit in both dispatch
// arms — applied columns differ between the paths only through the Gram
// entries that picked the rotation.
func TestApplyPairBitIdentical(t *testing.T) {
	forEachArm(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(12))
		for _, n := range diffHeights {
			x1, y1 := randCol(n, rng), randCol(n, rng)
			x2 := append([]float64(nil), x1...)
			y2 := append([]float64(nil), y1...)
			r := ComputeRotation(GramRef(x1, y1))
			r.Apply(x1, y1)
			applyPair(r.C, r.S, x2, y2)
			for k := range x1 {
				if x1[k] != x2[k] || y1[k] != y2[k] {
					t.Fatalf("n=%d row %d: applyPair diverges bitwise: (%g,%g) vs (%g,%g)",
						n, k, x1[k], y1[k], x2[k], y2[k])
				}
			}
		}
	})
}

// TestRotateGramMatchesRecomputation: the norms and lookahead dot that
// rotateGram/rotateGramNext accumulate during the application must stay
// within the documented budget of recomputing them from the rotated
// columns with the reference dots.
func TestRotateGramMatchesRecomputation(t *testing.T) {
	forEachArm(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(13))
		for _, n := range diffHeights {
			x := randCol(n, rng)
			y := randCol(n, rng)
			yn := randCol(n, rng)
			r := ComputeRotation(GramRef(x, y))

			x2 := append([]float64(nil), x...)
			y2 := append([]float64(nil), y...)
			a, b, g := rotateGramNext(r.C, r.S, x2, y2, yn)
			ar, _, _ := GramRef(x2, y2)
			gRef := 0.0
			for k := range x2 {
				gRef += x2[k] * yn[k]
			}
			br2 := 0.0
			for _, v := range y2 {
				br2 += v * v
			}
			if d := math.Abs(a - ar); d > epsBudget(n, ar) {
				t.Errorf("n=%d rotateGramNext: alpha drift %g", n, d)
			}
			if d := math.Abs(b - br2); d > epsBudget(n, br2) {
				t.Errorf("n=%d rotateGramNext: beta drift %g", n, d)
			}
			if d := math.Abs(g - gRef); d > epsBudget(n, math.Sqrt(ar*br2)) {
				t.Errorf("n=%d rotateGramNext: gamma drift %g", n, d)
			}

			x3 := append([]float64(nil), x...)
			y3 := append([]float64(nil), y...)
			a3, b3 := rotateGram(r.C, r.S, x3, y3)
			ar3, br3, _ := GramRef(x3, y3)
			if d := math.Abs(a3 - ar3); d > epsBudget(n, ar3) {
				t.Errorf("n=%d rotateGram: alpha drift %g", n, d)
			}
			if d := math.Abs(b3 - br3); d > epsBudget(n, br3) {
				t.Errorf("n=%d rotateGram: beta drift %g", n, d)
			}
			// The rotated columns themselves must be bit-identical to the
			// reference application (no sums involved).
			xr := append([]float64(nil), x...)
			yr := append([]float64(nil), y...)
			r.Apply(xr, yr)
			for k := range xr {
				if xr[k] != x3[k] || yr[k] != y3[k] {
					t.Fatalf("n=%d row %d: rotateGram application diverges bitwise", n, k)
				}
			}
		}
	})
}

// pairSet builds a deterministic set of w columns of height n with matching
// identity-seeded factor columns of height fm.
func pairSet(w, n, fm int, seed int64) (a, u [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	a = make([][]float64, w)
	u = make([][]float64, w)
	for i := range a {
		a[i] = randCol(n, rng)
		u[i] = make([]float64, fm)
		u[i][i%fm] = 1
	}
	return a, u
}

// refWithin / refCrossPairs mirror the engine's reference pairings.
func refWithin(a, u [][]float64, conv *Conv) {
	for i := 0; i < len(a); i++ {
		for j := i + 1; j < len(a); j++ {
			RotatePairRef(a[i], a[j], u[i], u[j], conv)
		}
	}
}

func refCrossPairs(xa, xu, ya, yu [][]float64, conv *Conv) {
	for i := range xa {
		for j := range ya {
			RotatePairRef(xa[i], ya[j], xu[i], yu[j], conv)
		}
	}
}

// colTol is the integration budget for whole fused pairings against the
// reference pairing. Per-entry reassociation error (≤ 4n·eps) perturbs each
// rotation angle, and a column participates in up to w rotations per
// pairing, so drift compounds: the widest sweep shape (w=64, n=512)
// measures ~1e-10; 1e-9 leaves headroom while staying an order of
// magnitude under the solve-level budget.
const colTol = 1e-9

func colsClose(t *testing.T, label string, got, want [][]float64, tol float64) {
	t.Helper()
	for i := range want {
		for k := range want[i] {
			if d := math.Abs(got[i][k] - want[i][k]); d > tol {
				t.Fatalf("%s: col %d row %d drift %g (got %g want %g)", label, i, k, d, got[i][k], want[i][k])
			}
		}
	}
}

// TestFusedPairingsMatchReference: whole fused pairings (Within and Cross —
// norm carrying, lookahead and fused application together) track the
// reference pairing within the integration budget, across block widths and
// column heights including every d = 2..6 block shape of n ≤ 512.
func TestFusedPairingsMatchReference(t *testing.T) {
	type shape struct{ w, n int }
	shapes := []shape{
		{2, 4}, {3, 7}, {2, 8}, {4, 16}, {3, 33}, {8, 64}, {5, 100},
		{16, 128}, {4, 512}, {32, 512},
		// Block widths of an n-column matrix on a d-cube: n / 2^(d+1),
		// d = 2..6 at n = 256 and 512.
		{256 / 8, 256}, {256 / 16, 256}, {256 / 32, 256}, {256 / 64, 256}, {256 / 128, 256},
		{512 / 8, 512}, {512 / 16, 512}, {512 / 32, 512}, {512 / 64, 512}, {512 / 128, 512},
	}
	forEachArm(t, func(t *testing.T) {
		for _, sh := range shapes {
			sh := sh
			t.Run(fmt.Sprintf("w=%d_n=%d", sh.w, sh.n), func(t *testing.T) {
				// Within.
				aRef, uRef := pairSet(sh.w, sh.n, sh.n, int64(sh.w*1000+sh.n))
				aF, uF := pairSet(sh.w, sh.n, sh.n, int64(sh.w*1000+sh.n))
				var convRef, convF Conv
				refWithin(aRef, uRef, &convRef)
				var sc Scratch
				sc.Within(aF, uF, &convF)
				colsClose(t, "within/A", aF, aRef, colTol)
				colsClose(t, "within/U", uF, uRef, colTol)
				if convF.Pairs != convRef.Pairs {
					t.Errorf("within: fused visited %d pairs, reference %d", convF.Pairs, convRef.Pairs)
				}

				// Cross, including a rectangular factor (the SVD shape).
				fm := sh.w * 2
				xaR, xuR := pairSet(sh.w, sh.n, fm, int64(sh.w*2000+sh.n))
				yaR, yuR := pairSet(sh.w, sh.n, fm, int64(sh.w*3000+sh.n))
				xaF, xuF := pairSet(sh.w, sh.n, fm, int64(sh.w*2000+sh.n))
				yaF, yuF := pairSet(sh.w, sh.n, fm, int64(sh.w*3000+sh.n))
				var crossRef, crossF Conv
				refCrossPairs(xaR, xuR, yaR, yuR, &crossRef)
				sc.Cross(xaF, xuF, yaF, yuF, &crossF)
				colsClose(t, "cross/xA", xaF, xaR, colTol)
				colsClose(t, "cross/yA", yaF, yaR, colTol)
				colsClose(t, "cross/xU", xuF, xuR, colTol)
				colsClose(t, "cross/yU", yuF, yuR, colTol)
				if crossF.Pairs != crossRef.Pairs {
					t.Errorf("cross: fused visited %d pairs, reference %d", crossF.Pairs, crossRef.Pairs)
				}

				// The convergence statistics feed the sweep decision; MaxRel
				// and OffSq must track the reference to the same budget.
				if d := math.Abs(convF.MaxRel - convRef.MaxRel); d > 1e-10 {
					t.Errorf("within: MaxRel drift %g", d)
				}
				if d := math.Abs(crossF.MaxRel - crossRef.MaxRel); d > 1e-10 {
					t.Errorf("cross: MaxRel drift %g", d)
				}
			})
		}
	})
}

// TestRotatePairFusedMatchesRef: the standalone fused rotation kernel
// against the reference on a single pair, odd and even heights.
func TestRotatePairFusedMatchesRef(t *testing.T) {
	forEachArm(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(15))
		for _, n := range diffHeights {
			aR, uR := pairSet(2, n, n, int64(n))
			aF, uF := pairSet(2, n, n, int64(n))
			var cR, cF Conv
			RotatePairRef(aR[0], aR[1], uR[0], uR[1], &cR)
			RotatePairFused(aF[0], aF[1], uF[0], uF[1], &cF)
			colsClose(t, "pair/A", aF, aR, colTol)
			colsClose(t, "pair/U", uF, uR, colTol)
			if cR.Rotations != cF.Rotations {
				t.Errorf("n=%d: rotated %d vs reference %d (random pairs sit far from the skip threshold)",
					n, cF.Rotations, cR.Rotations)
			}
			_ = rng
		}
	})
}

// TestFusedPairingZeroAllocs: the sweep inner loop must not allocate once
// the worker's scratch is warm.
func TestFusedPairingZeroAllocs(t *testing.T) {
	xa, xu := pairSet(8, 128, 128, 21)
	ya, yu := pairSet(8, 128, 128, 22)
	var sc Scratch
	var conv Conv
	sc.Cross(xa, xu, ya, yu, &conv) // warm the scratch
	allocs := testing.AllocsPerRun(10, func() {
		sc.Cross(xa, xu, ya, yu, &conv)
		sc.Within(xa, xu, &conv)
	})
	if allocs != 0 {
		t.Errorf("fused pairing allocates %.1f times per run, want 0", allocs)
	}
}

// TestScratchGrowsAndReuses: the scratch serves narrower pairings without
// reallocating after a wide one.
func TestScratchGrowsAndReuses(t *testing.T) {
	var sc Scratch
	wide, wideU := pairSet(16, 32, 32, 23)
	var conv Conv
	sc.Within(wide, wideU, &conv)
	narrow, narrowU := pairSet(4, 32, 32, 24)
	allocs := testing.AllocsPerRun(5, func() {
		sc.Within(narrow, narrowU, &conv)
	})
	if allocs != 0 {
		t.Errorf("narrow pairing after wide allocated %.1f times", allocs)
	}
}

// TestApplyLengthMismatchPanics pins the chosen contract of Rotation.Apply
// and RotatePairRef: columns of unequal length (in the working pair or in
// the factor pair, shorter or longer) panic up front, before any element or
// the Conv tracker is mutated. applyPair alone would rotate only a prefix
// of a longer second column.
func TestApplyLengthMismatchPanics(t *testing.T) {
	// ramp returns a column of height n with entries start, start+1, ...
	ramp := func(n int, start float64) []float64 {
		c := make([]float64, n)
		for k := range c {
			c[k] = start + float64(k)
		}
		return c
	}
	// Every case is a non-orthogonal working pair, so a kernel that got
	// past the length check would rotate it.
	cases := []struct {
		name           string
		ai, aj, ui, uj []float64
		call           func(ai, aj, ui, uj []float64, conv *Conv)
	}{
		{"Apply", ramp(3, 1), ramp(2, 4), nil, nil,
			func(ai, aj, _, _ []float64, _ *Conv) { Rotation{C: 0.6, S: 0.8}.Apply(ai, aj) }},
		{"RotatePairRef/working-short", ramp(20, 1), ramp(19, 3), ramp(20, 0), ramp(20, 2), RotatePairRef},
		{"RotatePairRef/working-long", ramp(20, 1), ramp(24, 3), ramp(20, 0), ramp(20, 2), RotatePairRef},
		{"RotatePairRef/factor-short", ramp(20, 1), ramp(20, 3), ramp(20, 0), ramp(17, 2), RotatePairRef},
		{"RotatePairRef/factor-long", ramp(20, 1), ramp(20, 3), ramp(20, 0), ramp(24, 2), RotatePairRef},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cp := func(c []float64) []float64 { return append([]float64(nil), c...) }
			ai, aj, ui, uj := cp(tc.ai), cp(tc.aj), cp(tc.ui), cp(tc.uj)
			conv := Conv{MaxRel: 0.5, OffSq: 2, Rotations: 3, Pairs: 4}
			want := conv
			defer func() {
				if recover() == nil {
					t.Fatal("unequal lengths did not panic")
				}
				// Nothing was mutated before the panic.
				if !sameBits(ai, tc.ai) || !sameBits(aj, tc.aj) || !sameBits(ui, tc.ui) || !sameBits(uj, tc.uj) {
					t.Errorf("columns mutated before panicking: ai=%v aj=%v ui=%v uj=%v", ai, aj, ui, uj)
				}
				if conv != want {
					t.Errorf("Conv mutated before panicking: %+v", conv)
				}
			}()
			tc.call(ai, aj, ui, uj, &conv)
		})
	}
}
