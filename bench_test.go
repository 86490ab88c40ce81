// Benchmark harness regenerating every table and figure of the paper's
// evaluation section, plus the ablations indexed in DESIGN.md. Run with
//
//	go test -bench=. -benchmem
//
// Each experiment benchmark logs the regenerated rows/series once (visible
// with -v or on failures) and reports headline values as custom metrics, so
// `go test -bench` output doubles as the reproduction record.
package repro_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ccube"
	"repro/internal/costmodel"
	"repro/internal/engine"
	"repro/internal/jacobi"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/ordering"
	"repro/internal/sequence"
	"repro/internal/trace"
)

// ---------------------------------------------------------------------------
// E1 — Table 1: α of the permuted-BR sequences vs the lower bound.

func BenchmarkTable1AlphaPermutedBR(b *testing.B) {
	var rows []ordering.SequenceReport
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = ordering.Table1(7, 14)
		if err != nil {
			b.Fatal(err)
		}
	}
	text := "Table 1 (α, lower bound, ratio):\n"
	worst := 0.0
	for _, r := range rows {
		text += fmt.Sprintf("  e=%2d  α=%4d  lb=%4d  ratio=%.2f\n", r.E, r.Alpha, r.LowerBound, r.Ratio)
		if r.Ratio > worst {
			worst = r.Ratio
		}
	}
	b.Log(text)
	b.ReportMetric(worst, "worst-α/lb-ratio")
}

// ---------------------------------------------------------------------------
// E2 — Table 2: convergence of the orderings (reduced trial count per
// benchmark iteration; `jacobitool table2` runs the full 30).

func BenchmarkTable2Convergence(b *testing.B) {
	var cells []jacobi.Table2Cell
	for i := 0; i < b.N; i++ {
		var err error
		cells, err = jacobi.RunTable2(jacobi.Table2Config{
			Sizes:  []int{8, 16, 32, 64},
			Trials: 3,
			Seed:   1998,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	text := "Table 2 (average sweeps; BR / permuted-BR / degree-4):\n"
	maxSweeps := 0.0
	for _, c := range cells {
		text += fmt.Sprintf("  m=%2d P=%2d  %.2f / %.2f / %.2f\n",
			c.M, c.P, c.Sweeps["BR"], c.Sweeps["permuted-BR"], c.Sweeps["degree-4"])
		if s := c.Sweeps["BR"]; s > maxSweeps {
			maxSweeps = s
		}
	}
	b.Log(text)
	b.ReportMetric(maxSweeps, "max-avg-sweeps")
}

// ---------------------------------------------------------------------------
// E3/E4/E5 — Figure 2 panels (a) m=2^18, (b) m=2^23, (c) m=2^32.

func benchmarkFigure2(b *testing.B, logM int) {
	var pts []costmodel.Figure2Point
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = costmodel.Figure2Panel(logM, 15)
		if err != nil {
			b.Fatal(err)
		}
	}
	text := fmt.Sprintf("Figure 2, m=2^%d (d: pipelined-BR / permuted-BR / degree-4 / lower bound):\n", logM)
	for _, p := range pts {
		text += fmt.Sprintf("  d=%2d  %.3f / %.3f / %.3f / %.3f\n",
			p.D, p.PipelinedBR, p.PermutedBR, p.Degree4, p.LowerBound)
	}
	b.Log(text)
	last := pts[len(pts)-1]
	b.ReportMetric(last.PipelinedBR, "pipelinedBR@d15")
	b.ReportMetric(last.PermutedBR, "permutedBR@d15")
	b.ReportMetric(last.Degree4, "degree4@d15")
}

func BenchmarkFigure2a(b *testing.B) { benchmarkFigure2(b, 18) }
func BenchmarkFigure2b(b *testing.B) { benchmarkFigure2(b, 23) }
func BenchmarkFigure2c(b *testing.B) { benchmarkFigure2(b, 32) }

// ---------------------------------------------------------------------------
// E6 — ablation: emulated machine vs analytic model on identical workloads.

func BenchmarkSimulatedVsAnalytic(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	a := matrix.RandomSymmetric(32, rng)
	var rel float64
	for i := 0; i < b.N; i++ {
		stats := solveOn(b, a, 2, ordering.NewBRFamily(), 1, 0, &engine.Emulated{Ts: 1000, Tw: 100})
		analytic := costmodel.BaselineSweepCost(2, costmodel.Params{M: 32, Ts: 1000, Tw: 100})
		rel = (stats.Makespan - analytic) / analytic
	}
	b.ReportMetric(rel*100, "rel-diff-%")
}

// ---------------------------------------------------------------------------
// E7 — ablation: α across all orderings.

func BenchmarkAlphaAllOrderings(b *testing.B) {
	var text string
	for i := 0; i < b.N; i++ {
		text = ""
		for e := 4; e <= 14; e++ {
			d4, err := sequence.Degree4(e)
			if err != nil {
				b.Fatal(err)
			}
			text += fmt.Sprintf("  e=%2d  lb=%4d  BR=%5d  pBR=%4d  D4=%4d\n",
				e, sequence.LowerBoundAlpha(e), sequence.BRAlpha(e),
				sequence.PermutedBRAlpha(e), d4.Alpha())
		}
	}
	b.Log("α per ordering:\n" + text)
}

// ---------------------------------------------------------------------------
// E8 — ablation: sequence degree (Definition 2) across orderings.

func BenchmarkDegreeTable(b *testing.B) {
	var text string
	for i := 0; i < b.N; i++ {
		text = ""
		for e := 4; e <= 12; e++ {
			d4, err := sequence.Degree4(e)
			if err != nil {
				b.Fatal(err)
			}
			text += fmt.Sprintf("  e=%2d  BR=%d  pBR=%d  D4=%d\n",
				e, sequence.BR(e).Degree(), sequence.PermutedBR(e).Degree(), d4.Degree())
		}
	}
	b.Log("degree per ordering:\n" + text)
}

// ---------------------------------------------------------------------------
// E9 — ablation: cost vs pipelining degree for one exchange phase.

func BenchmarkPipeliningDegreeSweep(b *testing.B) {
	seq := sequence.PermutedBR(8)
	params := ccube.CostParams{Ts: 1000, Tw: 100}
	var text string
	var bestQ int
	for i := 0; i < b.N; i++ {
		text = ""
		for _, q := range []int{1, 2, 4, 16, 64, 255, 1024, 65536} {
			text += fmt.Sprintf("  Q=%6d  cost=%.3e\n", q, ccube.PhaseCommCost(seq, q, 1e6, params))
		}
		bestQ = ccube.OptimalPhaseQ(seq, 1e6, 1<<20, params).Q
	}
	b.Log("permuted-BR e=8, S=1e6:\n" + text)
	b.ReportMetric(float64(bestQ), "optimal-Q")
}

// ---------------------------------------------------------------------------
// Micro-benchmarks: the building blocks.

func BenchmarkSequenceBR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = sequence.BR(14)
	}
}

func BenchmarkSequencePermutedBR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = sequence.PermutedBR(14)
	}
}

func BenchmarkSequenceDegree4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := sequence.Degree4(14); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSequenceValidate(b *testing.B) {
	seq := sequence.PermutedBR(14)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !sequence.IsESequence(seq, 14) {
			b.Fatal("invalid")
		}
	}
}

func BenchmarkAlphaSlidingStats(b *testing.B) {
	seq := sequence.PermutedBR(14)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sequence.SlidingStats(seq, 64)
	}
}

func BenchmarkSweepBuild(b *testing.B) {
	fam := ordering.NewPermutedBRFamily()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ordering.BuildSweep(10, fam); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSweepVerify(b *testing.B) {
	fam := ordering.NewDegree4Family()
	sw, err := ordering.BuildSweep(6, fam)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := ordering.NewState(6)
		if err := ordering.VerifySweep(st, sw, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRotationKernel(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := 256
	x := make([]float64, m)
	y := make([]float64, m)
	ux := make([]float64, m)
	uy := make([]float64, m)
	for i := range x {
		x[i], y[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	var conv engine.ConvTracker
	b.SetBytes(int64(4 * m * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.RotatePair(x, y, ux, uy, &conv)
	}
}

func BenchmarkPipelineScheduleBuild(b *testing.B) {
	seq := sequence.PermutedBR(10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ccube.Build(seq, 64); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMachineExchange(b *testing.B) {
	m, err := machine.New(machine.Config{Dim: 3, Ts: 1000, Tw: 100})
	if err != nil {
		b.Fatal(err)
	}
	payloadLen := 1024
	b.SetBytes(int64(8 * payloadLen * m.Nodes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := m.Run(func(ctx *machine.NodeCtx) error {
			_, err := ctx.Exchange(0, make([]float64, payloadLen))
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMachineAllReduce(b *testing.B) {
	m, err := machine.New(machine.Config{Dim: 4, Ts: 1000, Tw: 100})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := m.Run(func(ctx *machine.NodeCtx) error {
			_, err := ctx.AllReduceSum([]float64{1, 2, 3})
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveSequentialSchedule(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	a := matrix.RandomSymmetric(32, rng)
	fam := ordering.NewDegree4Family()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prob, err := engine.NewProblem(a, 2, nil)
		if err != nil {
			b.Fatal(err)
		}
		prob.Family = fam
		out, err := prob.RunCentral()
		if err != nil {
			b.Fatal(err)
		}
		out.Eigen()
	}
}

func BenchmarkSolveParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	a := matrix.RandomSymmetric(32, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solveOn(b, a, 2, ordering.NewDegree4Family(), 0, 0, &engine.Emulated{Ts: 1000, Tw: 100})
	}
}

func BenchmarkSolveParallelPipelined(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	a := matrix.RandomSymmetric(32, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solveOn(b, a, 2, ordering.NewDegree4Family(), 0, 2, &engine.Emulated{Ts: 1000, Tw: 100})
	}
}

func BenchmarkTwoSidedReference(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	a := matrix.RandomSymmetric(32, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := jacobi.SolveTwoSided(a, jacobi.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// E12 — engine backends: the same n=512 eigensolve on the emulated machine
// (serialized payloads + virtual clock) and on the shared-memory multicore
// backend (pointer handoff, no clock). Multicore must win wall-clock: the
// work is identical, the serialization is not.

func benchmarkBackend512(b *testing.B, be engine.ExecBackend) {
	rng := rand.New(rand.NewSource(512))
	a := matrix.RandomSymmetric(512, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solveOn(b, a, 3, ordering.NewPermutedBRFamily(), 1, 0, be)
	}
}

func BenchmarkBackendEmulated512(b *testing.B) {
	benchmarkBackend512(b, &engine.Emulated{Ts: 1000, Tw: 100})
}
func BenchmarkBackendMulticore512(b *testing.B) { benchmarkBackend512(b, &engine.Multicore{}) }
func BenchmarkBackendAnalytic512(b *testing.B) {
	benchmarkBackend512(b, &engine.Analytic{Ts: 1000, Tw: 100})
}

// ---------------------------------------------------------------------------
// E13 — the sweep-schedule cache: repeated schedule construction must cost
// zero allocations after the first build (compare BenchmarkSweepBuild).

func BenchmarkSweepCached(b *testing.B) {
	fam := ordering.NewPermutedBRFamily()
	if _, err := ordering.CachedSweep(10, fam); err != nil {
		b.Fatal(err)
	}
	before := ordering.SweepCacheStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ordering.CachedSweep(10, fam); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	after := ordering.SweepCacheStats()
	if builds := after.Builds - before.Builds; builds != 0 {
		b.Fatalf("cached sweep performed %d rebuilds", builds)
	}
	b.ReportMetric(float64(after.Hits-before.Hits)/float64(b.N), "hits/op")
}

// ---------------------------------------------------------------------------
// E10 — ablation: relative cost vs port count (k-port architectures).

func BenchmarkPortCountSweep(b *testing.B) {
	p := costmodel.Params{M: 1 << 23, Ts: 1000, Tw: 100}
	var pts []costmodel.PortPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = costmodel.PortCountSweep(8, []int{1, 2, 4, 8, 0}, p)
		if err != nil {
			b.Fatal(err)
		}
	}
	text := "cost vs ports (d=8, m=2^23):\n"
	for _, pt := range pts {
		text += fmt.Sprintf("  k=%d  pipeBR=%.3f  pBR=%.3f  d4=%.3f\n",
			pt.K, pt.PipelinedBR, pt.PermutedBR, pt.Degree4)
	}
	b.Log(text)
	b.ReportMetric(pts[2].Degree4, "degree4@4ports")
}

// ---------------------------------------------------------------------------
// E11 — ablation: link balance, static (schedule) and dynamic (traced run).

func BenchmarkLinkBalance(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	a := matrix.RandomSymmetric(32, rng)
	var brShare, pbrShare float64
	for i := 0; i < b.N; i++ {
		for _, entry := range []struct {
			fam  ordering.Family
			dest *float64
		}{
			{ordering.NewBRFamily(), &brShare},
			{ordering.NewPermutedBRFamily(), &pbrShare},
		} {
			col := trace.NewCollector()
			solveOn(b, a, 4, entry.fam, 1, 0, &engine.Emulated{Ts: 1000, Tw: 100, OnEvent: col.Record})
			*entry.dest = col.Summarize(4).MaxDimShare
		}
	}
	b.Logf("busiest-dimension message share: BR %.2f vs permuted-BR %.2f (1/d = 0.25)", brShare, pbrShare)
	b.ReportMetric(brShare, "BR-max-share")
	b.ReportMetric(pbrShare, "pBR-max-share")
}

// ---------------------------------------------------------------------------
// SVD micro-benchmark (the method's other face; reference [7] of the paper).

func BenchmarkSolveSVD(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	a := matrix.RandomDense(32, 16, rng)
	fam := ordering.NewDegree4Family()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prob, err := engine.NewSVDProblem(a, 2)
		if err != nil {
			b.Fatal(err)
		}
		prob.Family = fam
		out, err := prob.RunCentral()
		if err != nil {
			b.Fatal(err)
		}
		out.SVD()
	}
}

// solveOn runs a fresh eigensolve of a on a d-cube under fam on be, with
// fixedSweeps > 0 bounding the run and q > 0 pipelining the exchange
// phases at that degree, and extracts the eigenpairs as every solve does.
func solveOn(b *testing.B, a *matrix.Dense, d int, fam ordering.Family, fixedSweeps, q int, be engine.ExecBackend) *engine.Stats {
	b.Helper()
	prob, err := engine.NewProblem(a, d, nil)
	if err != nil {
		b.Fatal(err)
	}
	prob.Family = fam
	prob.FixedSweeps = fixedSweeps
	prob.Pipelined, prob.PipelineQ = q > 0, q
	out, stats, err := prob.Run(be)
	if err != nil {
		b.Fatal(err)
	}
	out.Eigen()
	return stats
}
