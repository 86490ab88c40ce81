package kernel

import (
	"math/rand"
	"testing"
)

// benchCols builds w columns of height m plus matching factor columns.
func benchCols(w, m, fm int, seed int64) (a, u [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	a = make([][]float64, w)
	u = make([][]float64, w)
	for i := range a {
		a[i] = make([]float64, m)
		for k := range a[i] {
			a[i][k] = 2*rng.Float64() - 1
		}
		u[i] = make([]float64, fm)
		u[i][i%fm] = 1
	}
	return a, u
}

// restore copies src column contents into dst (shapes must match). The
// pairing benchmarks reset their columns every iteration: a pairing
// orthogonalizes its input, and benchmarking the second pass would measure
// the skip path instead of the rotation path.
func restore(dst, src [][]float64) {
	for i := range src {
		copy(dst[i], src[i])
	}
}

// refCross is the reference block pairing (engine.PairCross's loop shape).
func refCross(xa, xu, ya, yu [][]float64, conv *Conv) {
	for i := range xa {
		for j := range ya {
			RotatePairRef(xa[i], ya[j], xu[i], yu[j], conv)
		}
	}
}

// The headline kernel benchmark pair: one block pairing at the bench
// command's n=512 d=3 shape (32-column blocks, 512-high columns), every
// pair rotating.
func BenchmarkCrossRef512(b *testing.B) {
	xa0, xu0 := benchCols(32, 512, 512, 1)
	ya0, yu0 := benchCols(32, 512, 512, 2)
	xa, xu := benchCols(32, 512, 512, 1)
	ya, yu := benchCols(32, 512, 512, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		restore(xa, xa0)
		restore(ya, ya0)
		restore(xu, xu0)
		restore(yu, yu0)
		b.StartTimer()
		var conv Conv
		refCross(xa, xu, ya, yu, &conv)
	}
}

func BenchmarkCrossFused512(b *testing.B) {
	forEachArm(b, func(b *testing.B) {
		xa0, xu0 := benchCols(32, 512, 512, 1)
		ya0, yu0 := benchCols(32, 512, 512, 2)
		xa, xu := benchCols(32, 512, 512, 1)
		ya, yu := benchCols(32, 512, 512, 2)
		var sc Scratch
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			restore(xa, xa0)
			restore(ya, ya0)
			restore(xu, xu0)
			restore(yu, yu0)
			b.StartTimer()
			var conv Conv
			sc.Cross(xa, xu, ya, yu, &conv)
		}
	})
}

// The skip-path pair: the same pairing on already-orthogonalized columns,
// measuring the near-convergence sweeps where most pairs only compute
// their Gram entries.
func BenchmarkCrossFusedSkipPath512(b *testing.B) {
	forEachArm(b, func(b *testing.B) {
		xa, xu := benchCols(32, 512, 512, 1)
		ya, yu := benchCols(32, 512, 512, 2)
		var sc Scratch
		var warm Conv
		for i := 0; i < 40; i++ {
			sc.Cross(xa, xu, ya, yu, &warm)
			sc.Within(xa, xu, &warm)
			sc.Within(ya, yu, &warm)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var conv Conv
			sc.Cross(xa, xu, ya, yu, &conv)
		}
	})
}

func BenchmarkWithinRef512(b *testing.B) {
	a0, u0 := benchCols(64, 512, 512, 3)
	a, u := benchCols(64, 512, 512, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		restore(a, a0)
		restore(u, u0)
		b.StartTimer()
		var conv Conv
		for x := 0; x < len(a); x++ {
			for y := x + 1; y < len(a); y++ {
				RotatePairRef(a[x], a[y], u[x], u[y], &conv)
			}
		}
	}
}

func BenchmarkWithinFused512(b *testing.B) {
	forEachArm(b, func(b *testing.B) {
		a0, u0 := benchCols(64, 512, 512, 3)
		a, u := benchCols(64, 512, 512, 3)
		var sc Scratch
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			restore(a, a0)
			restore(u, u0)
			b.StartTimer()
			var conv Conv
			sc.Within(a, u, &conv)
		}
	})
}

// pairBatch is how many independent 512-row column pairs the single-pair
// benchmarks rotate per restore. A pair takes 1–3 µs, so stopping the
// timer and restoring for every pair would cost more than the pair; 32
// pairs (512 KiB of working and factor columns) still fit in L2.
const pairBatch = 32

// benchPairs times one pair rotation per op: ops cycle through pairBatch
// independent pairs, which are restored (untimed) once per batch so every
// timed rotation takes the rotation path, not the skip path.
func benchPairs(b *testing.B, rotate func(a0, a1, u0, u1 []float64, conv *Conv)) {
	a0, _ := benchCols(2*pairBatch, 512, 512, 4)
	a, u := benchCols(2*pairBatch, 512, 512, 4)
	var conv Conv // outside the loop: escaping through rotate, it would allocate per op
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % pairBatch
		if k == 0 {
			b.StopTimer()
			restore(a, a0)
			b.StartTimer()
		}
		conv = Conv{}
		rotate(a[2*k], a[2*k+1], u[2*k], u[2*k+1], &conv)
	}
}

func BenchmarkRotatePairRef(b *testing.B) {
	forEachArm(b, func(b *testing.B) { benchPairs(b, RotatePairRef) })
}

func BenchmarkRotatePairFused(b *testing.B) {
	forEachArm(b, func(b *testing.B) { benchPairs(b, RotatePairFused) })
}

// laneCols builds w interleaved lane columns (height m, K lanes) plus
// matching factor lane columns, lanes loaded with distinct data.
func laneBenchCols(w, m, fm, K int, seed int64) (a, u [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	a = make([][]float64, w)
	u = make([][]float64, w)
	for i := range a {
		a[i] = make([]float64, m*K)
		for k := range a[i] {
			a[i][k] = 2*rng.Float64() - 1
		}
		u[i] = make([]float64, fm*K)
		for k := 0; k < K; k++ {
			u[i][(i%fm)*K+k] = 1
		}
	}
	return a, u
}

// The batched counterpart of the service's small-job block pairing: one
// Cross at the n=96 d=2 shape (12-column blocks, 96-high columns) advancing
// K=8 jobs at once. Compare per-job against BenchmarkCrossFused96Solo.
func BenchmarkCrossLane96x8(b *testing.B) {
	const w, m, K = 12, 96, 8
	xa0, xu0 := laneBenchCols(w, m, m, K, 1)
	ya0, yu0 := laneBenchCols(w, m, m, K, 2)
	xa, xu := laneBenchCols(w, m, m, K, 1)
	ya, yu := laneBenchCols(w, m, m, K, 2)
	sc := NewLaneScratch(K, false)
	active := make([]float64, K)
	for k := range active {
		active[k] = -1
	}
	conv := make([]Conv, K)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		restore(xa, xa0)
		restore(ya, ya0)
		restore(xu, xu0)
		restore(yu, yu0)
		b.StartTimer()
		for k := range conv {
			conv[k] = Conv{}
		}
		sc.Cross(xa, xu, ya, yu, nil, nil, active, conv)
	}
}

// The solo fused pairing at the same shape, for the per-job comparison.
func BenchmarkCrossFused96Solo(b *testing.B) {
	const w, m = 12, 96
	xa0, xu0 := benchCols(w, m, m, 1)
	ya0, yu0 := benchCols(w, m, m, 2)
	xa, xu := benchCols(w, m, m, 1)
	ya, yu := benchCols(w, m, m, 2)
	var sc Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		restore(xa, xa0)
		restore(ya, ya0)
		restore(xu, xu0)
		restore(yu, yu0)
		b.StartTimer()
		var conv Conv
		sc.Cross(xa, xu, ya, yu, &conv)
	}
}

// Component benchmarks of the lane primitives at the same shape.
func BenchmarkGammaDotBatch96x8(b *testing.B) {
	const m, K = 96, 8
	xa, _ := laneBenchCols(2, m, m, K, 3)
	out := make([]float64, K)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GammaDotBatch(xa[0], xa[1], K, out)
	}
}

func BenchmarkRotateGramBatch96x8(b *testing.B) {
	const m, K = 96, 8
	xa, _ := laneBenchCols(2, m, m, K, 4)
	c := make([]float64, K)
	s := make([]float64, K)
	mask := make([]float64, K)
	a := make([]float64, K)
	bb := make([]float64, K)
	for k := 0; k < K; k++ {
		c[k], s[k], mask[k] = 0.8, 0.6, -1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rotateGramBatch(c, s, mask, xa[0], xa[1], K, a, bb)
	}
}

func BenchmarkApplyPairBatch96x8(b *testing.B) {
	const m, K = 96, 8
	xa, _ := laneBenchCols(2, m, m, K, 5)
	c := make([]float64, K)
	s := make([]float64, K)
	mask := make([]float64, K)
	for k := 0; k < K; k++ {
		c[k], s[k], mask[k] = 0.8, 0.6, -1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		applyPairBatch(c, s, mask, xa[0], xa[1], K)
	}
}

// The per-pair decision loop in isolation: 8 active lanes, all rotating.
func BenchmarkDecide8(b *testing.B) {
	const K = 8
	sc := NewLaneScratch(K, false)
	alpha := make([]float64, K)
	beta := make([]float64, K)
	active := make([]float64, K)
	conv := make([]Conv, K)
	rng := rand.New(rand.NewSource(6))
	for k := 0; k < K; k++ {
		alpha[k] = 1 + rng.Float64()
		beta[k] = 1 + rng.Float64()
		sc.gamma[k] = 0.1 + 0.5*rng.Float64()
		active[k] = -1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.decide(alpha, beta, active, conv)
	}
}

// The fused working-pair step (rotate + norm carry + lookahead gamma) in
// isolation, the dominant cost of a rotating lane pair.
func BenchmarkRotateStepA96x8(b *testing.B) {
	const m, K = 96, 8
	xa, _ := laneBenchCols(3, m, m, K, 7)
	sc := NewLaneScratch(K, false)
	a := make([]float64, K)
	bb := make([]float64, K)
	for k := 0; k < K; k++ {
		sc.cvec[k], sc.svec[k], sc.mask[k] = 0.8, 0.6, -1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.rotateStepA(xa[0], xa[1], xa[2], a, bb)
	}
}
