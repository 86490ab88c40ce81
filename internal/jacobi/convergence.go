package jacobi

import (
	"fmt"
	"math/rand"

	"repro/internal/bitutil"
	"repro/internal/engine"
	"repro/internal/matrix"
	"repro/internal/ordering"
)

// Table2Cell is one row of the paper's Table 2: the average number of sweeps
// to convergence for a matrix size m on P = 2^d processors, per ordering.
type Table2Cell struct {
	M, P   int
	Sweeps map[string]float64 // family name -> average sweeps
}

// Table2Config parameterizes the convergence experiment.
type Table2Config struct {
	// Sizes are the matrix sizes; the paper uses 8, 16, 32, 64.
	Sizes []int
	// Trials is the number of random matrices per cell; the paper uses 30.
	Trials int
	// Tol is the convergence threshold on off(AᵀA)/trace(AᵀA). The paper
	// does not state its criterion; the default 3.5e-4 is sqrt(eps) for
	// single precision — the classic Jacobi stopping rule in a 1998
	// setting — and reproduces the paper's 3.2–6.0 sweep band (see
	// EXPERIMENTS.md).
	Tol float64
	// MaxSweeps bounds each solve.
	MaxSweeps int
	// Seed makes the experiment reproducible.
	Seed int64
	// Families are the orderings to compare; defaults to BR, permuted-BR
	// and degree-4 as in the paper.
	Families []ordering.Family
}

func (c Table2Config) withDefaults() Table2Config {
	if len(c.Sizes) == 0 {
		c.Sizes = []int{8, 16, 32, 64}
	}
	if c.Trials <= 0 {
		c.Trials = 30
	}
	if c.Tol <= 0 {
		c.Tol = 3.5e-4
	}
	if c.MaxSweeps <= 0 {
		c.MaxSweeps = 40
	}
	if len(c.Families) == 0 {
		c.Families = []ordering.Family{
			ordering.NewBRFamily(),
			ordering.NewPermutedBRFamily(),
			ordering.NewDegree4Family(),
		}
	}
	return c
}

// RunTable2 reproduces the paper's Table 2: for every matrix size m in the
// config and every P = 2^d with 2^(d+1) <= m, it solves Trials random
// symmetric matrices (entries uniform in [-1,1]) with each ordering family
// and reports the average sweep count. The same matrices are used across
// families (as the paper's identical columns for BR and permuted-BR imply).
func RunTable2(cfg Table2Config) ([]Table2Cell, error) {
	cfg = cfg.withDefaults()
	var cells []Table2Cell
	for _, m := range cfg.Sizes {
		maxD := bitutil.Log2(m) - 1 // largest d with 2^(d+1) <= m
		for d := 1; d <= maxD; d++ {
			cell := Table2Cell{M: m, P: 1 << uint(d), Sweeps: make(map[string]float64)}
			// Fresh deterministic stream per cell so cells are independent
			// of each other and of the family iteration order.
			rng := rand.New(rand.NewSource(cfg.Seed + int64(m)*1000 + int64(d)))
			mats := make([]*matrix.Dense, cfg.Trials)
			for t := range mats {
				mats[t] = matrix.RandomSymmetric(m, rng)
			}
			for _, fam := range cfg.Families {
				total := 0
				for _, a := range mats {
					res, err := table2Solve(a, d, fam, Options{Tol: cfg.Tol, MaxSweeps: cfg.MaxSweeps, Criterion: OffFrobCriterion})
					if err != nil {
						return nil, fmt.Errorf("jacobi: table2 m=%d d=%d %s: %w", m, d, fam.Name(), err)
					}
					if !res.Converged {
						return nil, fmt.Errorf("jacobi: table2 m=%d d=%d %s: no convergence in %d sweeps", m, d, fam.Name(), cfg.MaxSweeps)
					}
					total += res.Sweeps
				}
				cell.Sweeps[fam.Name()] = float64(total) / float64(cfg.Trials)
			}
			cells = append(cells, cell)
		}
	}
	return cells, nil
}

// table2Solve replays one Table 2 solve on the engine's central schedule
// replay, the sequential reference of the distributed backends.
func table2Solve(a *matrix.Dense, d int, fam ordering.Family, opts Options) (*engine.Outcome, error) {
	prob, err := engine.NewProblem(a, d, nil)
	if err != nil {
		return nil, err
	}
	prob.Family = fam
	prob.Opts = opts
	return prob.RunCentral()
}
