package jacobi

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/matrix"
	"repro/internal/ordering"
)

// The tests below run every ordering-driven solve the way the service and
// the CLI do: build the engine problem from the matrix, set its fields,
// run it, extract the factors.

// problem builds the eigensolve of a on a d-cube with the given ordering
// and options.
func problem(t *testing.T, a *matrix.Dense, d int, fam ordering.Family, opts Options) *engine.Problem {
	t.Helper()
	p, err := engine.NewProblem(a, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.Family = fam
	p.Opts = opts
	return p
}

// pipelined switches p to communication pipelining of degree q (0 = the
// cost-model optimum) under the paper's Figure 2 machine parameters.
func pipelined(p *engine.Problem, q int) *engine.Problem {
	p.Pipelined = true
	p.PipelineQ = q
	p.PipelineTs, p.PipelineTw = 1000, 100
	return p
}

// figure2 is the all-port emulated hypercube with the paper's Figure 2
// machine parameters.
func figure2() *engine.Emulated {
	return &engine.Emulated{Ts: 1000, Tw: 100}
}

// central runs the schedule-driven sequential replay: the exact rotation
// order of the ordering on a d-cube, executed on one goroutine.
func central(t *testing.T, a *matrix.Dense, d int, fam ordering.Family, opts Options) *engine.EigenResult {
	t.Helper()
	out, err := problem(t, a, d, fam, opts).RunCentral()
	if err != nil {
		t.Fatal(err)
	}
	return out.Eigen()
}

// run executes p distributed over be's nodes and extracts the eigenpairs.
func run(t *testing.T, p *engine.Problem, be engine.ExecBackend) (*engine.EigenResult, *engine.Stats) {
	t.Helper()
	out, stats, err := p.Run(be)
	if err != nil {
		t.Fatal(err)
	}
	return out.Eigen(), stats
}
