package jacobi

import (
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/matrix"
	"repro/internal/ordering"
)

// With Q = 1 the pipelined schedule degenerates to the original iteration
// order, so the pipelined solver must be bit-identical to the unpipelined
// distributed solver.
func TestPipelinedQ1BitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	cases := []struct{ m, d int }{{8, 1}, {16, 2}, {12, 2}}
	for _, c := range cases {
		a := matrix.RandomSymmetric(c.m, rng)
		for _, fam := range []ordering.Family{ordering.NewBRFamily(), ordering.NewPermutedBRFamily()} {
			ref, _ := run(t, problem(t, a, c.d, fam, Options{}), figure2())
			got, _ := run(t, pipelined(problem(t, a, c.d, fam, Options{}), 1), figure2())
			if got.Sweeps != ref.Sweeps {
				t.Errorf("m=%d d=%d %s: sweeps %d vs %d", c.m, c.d, fam.Name(), got.Sweeps, ref.Sweeps)
			}
			for i := range ref.Values {
				if got.Values[i] != ref.Values[i] {
					t.Fatalf("m=%d d=%d %s: eigenvalue %d differs (Q=1 should be bit-identical)",
						c.m, c.d, fam.Name(), i)
				}
			}
		}
	}
}

// Pipelining with Q > 1 reorders rotations within a phase but must converge
// to the same spectrum with small residuals and visit exactly the same
// number of pairs per sweep.
func TestPipelinedQ2Spectrum(t *testing.T) {
	rng := rand.New(rand.NewSource(203))
	cases := []struct{ m, d, q int }{
		{16, 1, 2}, {16, 2, 2}, {32, 2, 4}, {24, 2, 3}, {32, 3, 2},
	}
	for _, c := range cases {
		a := matrix.RandomSymmetric(c.m, rng)
		ref, err := SolveCyclic(a, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, fam := range ordering.AllFamilies() {
			got, _ := run(t, pipelined(problem(t, a, c.d, fam, Options{}), c.q), figure2())
			if !got.Converged {
				t.Fatalf("m=%d d=%d q=%d %s: no convergence", c.m, c.d, c.q, fam.Name())
			}
			if dist := matrix.SortedEigenvalueDistance(ref.Values, got.Values); dist > 1e-8 {
				t.Errorf("m=%d d=%d q=%d %s: spectra differ by %g", c.m, c.d, c.q, fam.Name(), dist)
			}
			if r := matrix.EigenResidual(a, got.Values, got.Vectors); r > 1e-8 {
				t.Errorf("m=%d d=%d q=%d %s: residual %g", c.m, c.d, c.q, fam.Name(), r)
			}
		}
	}
}

// Automatic Q selection (PipelineQ = 0) must pick the cost-model optimum and
// still converge correctly.
func TestPipelinedAutoQ(t *testing.T) {
	rng := rand.New(rand.NewSource(207))
	a := matrix.RandomSymmetric(32, rng)
	res, _ := run(t, pipelined(problem(t, a, 2, ordering.NewPermutedBRFamily(), Options{}), 0), figure2())
	if !res.Converged {
		t.Fatal("no convergence")
	}
	if r := matrix.EigenResidual(a, res.Values, res.Vectors); r > 1e-8 {
		t.Errorf("residual %g", r)
	}
}

// The multi-port pipelined run must beat the unpipelined run in modeled
// communication time on a configuration where pipelining pays (degree-4
// ordering, large blocks, shallow Q): the headline effect of the paper,
// measured on the emulated machine rather than the analytic model.
func TestPipelinedMakespanBeatsUnpipelined(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	a := matrix.RandomSymmetric(64, rng)
	d := 2
	plain := problem(t, a, d, ordering.NewDegree4Family(), Options{})
	plain.FixedSweeps = 2
	_, statsUnpiped := run(t, plain, figure2())
	piped := pipelined(problem(t, a, d, ordering.NewDegree4Family(), Options{}), 3)
	piped.FixedSweeps = 2
	_, statsPiped := run(t, piped, figure2())
	if statsPiped.Makespan >= statsUnpiped.Makespan {
		t.Errorf("pipelined makespan %g did not beat unpipelined %g",
			statsPiped.Makespan, statsUnpiped.Makespan)
	}
}

// Q larger than the block size degrades to empty packets but must stay
// correct.
func TestPipelinedOversizedQ(t *testing.T) {
	rng := rand.New(rand.NewSource(213))
	a := matrix.RandomSymmetric(8, rng) // blocks of 1 column at d=2
	// Q = 5 will be capped to the minimum block size, 1.
	res, _ := run(t, pipelined(problem(t, a, 2, ordering.NewBRFamily(), Options{}), 5), figure2())
	ref, err := SolveCyclic(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if dist := matrix.SortedEigenvalueDistance(ref.Values, res.Values); dist > 1e-8 {
		t.Errorf("spectra differ by %g", dist)
	}
}

func TestPipelinedRejectsNonSquare(t *testing.T) {
	if _, err := engine.NewProblem(matrix.NewDense(2, 3), 1, nil); err == nil {
		t.Error("non-square accepted")
	}
}

func TestSplitAssembleRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(217))
	a := matrix.RandomSymmetric(10, rng)
	blocks, err := engine.BuildBlocks(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := blocks[0] // 5 columns
	for q := 1; q <= 7; q++ {
		slices := engine.SplitBlock(b, q)
		if len(slices) != q {
			t.Fatalf("q=%d: %d slices", q, len(slices))
		}
		total := 0
		for _, s := range slices {
			total += s.NumCols()
		}
		if total != b.NumCols() {
			t.Fatalf("q=%d: slices cover %d columns", q, total)
		}
		re := engine.AssembleBlock(slices)
		if re.NumCols() != b.NumCols() || re.ID != b.ID {
			t.Fatalf("q=%d: assembled %d cols id %d", q, re.NumCols(), re.ID)
		}
		for i := range re.Cols {
			if re.Cols[i] != b.Cols[i] {
				t.Fatalf("q=%d: column order changed", q)
			}
		}
	}
}

// SplitBlock returns views: rotating a slice's column mutates the parent.
func TestSplitBlockShares(t *testing.T) {
	rng := rand.New(rand.NewSource(219))
	a := matrix.RandomSymmetric(6, rng)
	blocks, err := engine.BuildBlocks(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := blocks[0]
	slices := engine.SplitBlock(b, 3)
	slices[0].A[0][0] = 42
	if b.A[0][0] != 42 {
		t.Error("SplitBlock copied instead of sharing")
	}
}

func TestEncodeDecodeBlocksRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(223))
	a := matrix.RandomSymmetric(6, rng)
	blocks, err := engine.BuildBlocks(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	msg := engine.EncodeBlocks(blocks[:3], 6, 6)
	got, err := engine.DecodeBlocks(msg, 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("decoded %d blocks", len(got))
	}
	for i, b := range got {
		if b.ID != blocks[i].ID || b.NumCols() != blocks[i].NumCols() {
			t.Errorf("block %d mismatched", i)
		}
	}
	if _, err := engine.DecodeBlocks(nil, 6, 6); err == nil {
		t.Error("empty message accepted")
	}
	if _, err := engine.DecodeBlocks(append(msg, 1), 6, 6); err == nil {
		t.Error("trailing garbage accepted")
	}
}
