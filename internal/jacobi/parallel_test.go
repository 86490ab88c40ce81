package jacobi

import (
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/ordering"
)

// The distributed solver must produce results bit-identical to the
// schedule-driven sequential replay: the same rotations in the same global
// order (disjoint columns across nodes within a step), with the
// order-independent MaxRel criterion.
func TestSolveParallelBitIdenticalToSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	cases := []struct{ m, d int }{
		{8, 1}, {16, 2}, {12, 1}, {16, 3}, {10, 2},
	}
	for _, c := range cases {
		a := matrix.RandomSymmetric(c.m, rng)
		for _, fam := range []ordering.Family{ordering.NewBRFamily(), ordering.NewDegree4Family()} {
			ref := central(t, a, c.d, fam, Options{})
			got, _ := run(t, problem(t, a, c.d, fam, Options{}), figure2())
			if got.Sweeps != ref.Sweeps {
				t.Errorf("m=%d d=%d %s: sweeps %d vs %d", c.m, c.d, fam.Name(), got.Sweeps, ref.Sweeps)
			}
			for i := range ref.Values {
				if got.Values[i] != ref.Values[i] {
					t.Fatalf("m=%d d=%d %s: eigenvalue %d differs: %g vs %g (should be bit-identical)",
						c.m, c.d, fam.Name(), i, got.Values[i], ref.Values[i])
				}
			}
			if !got.Vectors.Equal(ref.Vectors, 0) {
				t.Errorf("m=%d d=%d %s: eigenvectors not bit-identical", c.m, c.d, fam.Name())
			}
		}
	}
}

func TestSolveParallelResidualAndOrthogonality(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	a := matrix.RandomSymmetric(24, rng)
	res, stats := run(t, problem(t, a, 2, ordering.NewPermutedBRFamily(), Options{}), figure2())
	if !res.Converged {
		t.Fatal("no convergence")
	}
	if r := matrix.EigenResidual(a, res.Values, res.Vectors); r > 1e-8 {
		t.Errorf("residual %g", r)
	}
	if o := matrix.OrthogonalityError(res.Vectors); o > 1e-10 {
		t.Errorf("orthogonality %g", o)
	}
	if stats.Makespan <= 0 {
		t.Error("no virtual time accumulated")
	}
	if stats.Messages == 0 {
		t.Error("no messages counted")
	}
}

// FixedSweeps mode runs exactly the requested sweeps without convergence
// reductions, so the message count is exactly nodes * transitions * sweeps.
func TestSolveParallelFixedSweeps(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	a := matrix.RandomSymmetric(16, rng)
	d := 2
	p := problem(t, a, d, ordering.NewBRFamily(), Options{})
	p.FixedSweeps = 3
	res, stats := run(t, p, figure2())
	if res.Sweeps != 3 {
		t.Errorf("sweeps = %d, want 3", res.Sweeps)
	}
	nodes := 1 << uint(d)
	transitions := 2*(1<<uint(d)) - 1
	want := nodes * transitions * 3
	if stats.Messages != want {
		t.Errorf("messages = %d, want %d", stats.Messages, want)
	}
}

// The virtual-time makespan of a fixed-sweep unpipelined run must equal the
// analytic baseline sweep cost times the sweep count (the machine implements
// exactly the model's Ts/Tw accounting; convergence reductions are off).
func TestSolveParallelMakespanMatchesAnalyticBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	for _, c := range []struct{ m, d int }{{16, 1}, {16, 2}, {32, 2}, {32, 3}} {
		a := matrix.RandomSymmetric(c.m, rng)
		p := problem(t, a, c.d, ordering.NewBRFamily(), Options{})
		p.FixedSweeps = 2
		_, stats := run(t, p, figure2())
		// Analytic: transitions * (Ts + S*Tw) per sweep, S = 2*(m/2^(d+1))*m.
		nb := float64(int(2) << uint(c.d))
		s := 2.0 * float64(c.m) / nb * float64(c.m)
		perBlockMsg := s + 2 + float64(c.m)/nb // encoding adds id, ncols, col indices
		transitions := float64(2*(int(1)<<uint(c.d)) - 1)
		want := 2 * transitions * (1000 + perBlockMsg*100)
		rel := (stats.Makespan - want) / want
		if rel < -0.01 || rel > 0.01 {
			t.Errorf("m=%d d=%d: makespan %g, analytic %g (rel err %.3f)", c.m, c.d, stats.Makespan, want, rel)
		}
	}
}

// Uneven block sizes (m not divisible by 2^(d+1)) must work end-to-end.
func TestSolveParallelUnevenBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	a := matrix.RandomSymmetric(13, rng)
	res, _ := run(t, problem(t, a, 2, ordering.NewBRFamily(), Options{}), figure2())
	ref, err := SolveCyclic(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d := matrix.SortedEigenvalueDistance(res.Values, ref.Values); d > 1e-8 {
		t.Errorf("spectra differ by %g", d)
	}
}

// One-port configuration must yield a strictly larger makespan than all-port
// for the same pipelined workload, and identical numerics.
func TestSolveParallelPortModelCost(t *testing.T) {
	rng := rand.New(rand.NewSource(127))
	a := matrix.RandomSymmetric(16, rng)
	solve := func(ports machine.PortModel) (*engine.EigenResult, *engine.Stats) {
		p := pipelined(problem(t, a, 2, ordering.NewDegree4Family(), Options{}), 2)
		p.FixedSweeps = 2
		p.PipelinePorts = int(ports)
		return run(t, p, &engine.Emulated{Ports: ports, Ts: 1000, Tw: 100})
	}
	resAll, statsAll := solve(machine.AllPort)
	resOne, statsOne := solve(machine.OnePort)
	if statsOne.Makespan <= statsAll.Makespan {
		t.Errorf("one-port makespan %g should exceed all-port %g", statsOne.Makespan, statsAll.Makespan)
	}
	for i := range resAll.Values {
		if resAll.Values[i] != resOne.Values[i] {
			t.Fatal("port model changed numerics")
		}
	}
}
