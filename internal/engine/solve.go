package engine

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/machine"
	"repro/internal/matrix"
)

// This file is the engine's front and back end for whole-matrix solves:
// NewProblem and NewSVDProblem turn an input matrix into a ready Problem,
// Outcome.Eigen and Outcome.SVD turn a finished run back into sorted
// factors, and NewBackend resolves a backend name. Every solve in the
// repository composes these with Run, RunContext, RunCentral or
// BatchedBackend.RunLane; callers set the remaining Problem fields
// (Family, Opts, hooks, pipelining) directly.

// NewProblem prepares the symmetric eigensolve of the square matrix a on a
// d-cube: the column blocks in canonical placement (working columns from
// a, factor columns from the identity), Rows and TraceGram. With resume
// non-nil the problem is restored from that checkpoint instead, and no
// blocks are built from a: the checkpoint replaces the initial partition
// wholesale, so building it would be an O(n²) copy thrown straight away.
func NewProblem(a *matrix.Dense, d int, resume *Checkpoint) (*Problem, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("engine: matrix is %dx%d, want square", a.Rows, a.Cols)
	}
	p := &Problem{Dim: d, Rows: a.Rows}
	if resume != nil {
		if err := p.Restore(resume); err != nil {
			return nil, err
		}
		return p, nil
	}
	blocks, err := BuildBlocks(a, d)
	if err != nil {
		return nil, err
	}
	p.Blocks = blocks
	p.TraceGram = traceGram(a)
	return p, nil
}

// NewSVDProblem prepares the singular value decomposition of a (rows >=
// cols; transpose first otherwise) on a d-cube: the same column partition
// as the eigensolve with rectangular payload — working columns of height
// rows, factor (V) columns of height cols.
func NewSVDProblem(a *matrix.Dense, d int) (*Problem, error) {
	if a.Rows < a.Cols {
		return nil, fmt.Errorf("engine: SVD requires rows >= cols (got %dx%d); pass the transpose", a.Rows, a.Cols)
	}
	if a.Cols == 0 {
		return nil, fmt.Errorf("engine: empty matrix")
	}
	blocks, err := BuildFactorBlocks(a, d, a.Cols)
	if err != nil {
		return nil, err
	}
	return &Problem{Blocks: blocks, Dim: d, Rows: a.Rows, FactorRows: a.Cols, TraceGram: traceGram(a)}, nil
}

// traceGram returns trace(AᵀA) = ‖A‖²_F, the rotation-invariant normalizer
// of the OffFrob criterion.
func traceGram(a *matrix.Dense) float64 {
	t := a.FrobeniusNorm()
	return t * t
}

// NewBackend returns the named execution backend — "emulated", "multicore"
// or "analytic" — for a machine with mc's port model and cost parameters;
// mc.OnEvent traces the emulated machine's communication (the other
// backends emit no events). mc.Dim is ignored: the problem supplies it.
func NewBackend(name string, mc machine.Config) (ExecBackend, error) {
	switch name {
	case "emulated":
		return &Emulated{Ports: mc.Ports, Ts: mc.Ts, Tw: mc.Tw, Tc: mc.Tc, OnEvent: mc.OnEvent}, nil
	case "multicore":
		return &Multicore{}, nil
	case "analytic":
		return &Analytic{Ports: mc.Ports, Ts: mc.Ts, Tw: mc.Tw, Tc: mc.Tc}, nil
	default:
		return nil, fmt.Errorf("engine: unknown backend %q (want emulated, multicore or analytic)", name)
	}
}

// EigenResult is the outcome of a symmetric eigensolve.
type EigenResult struct {
	// Values are the eigenvalues in ascending order.
	Values []float64
	// Vectors holds the corresponding eigenvectors as columns.
	Vectors *matrix.Dense
	// Sweeps is the number of sweeps executed.
	Sweeps int
	// Converged reports whether Tol was reached within MaxSweeps.
	Converged bool
	// Interrupted reports that the solve was stopped early at a sweep
	// boundary by an Interrupt hook (e.g. a canceled job context).
	Interrupted bool
	// FinalMaxRel is the largest relative off-diagonal value of the final
	// sweep.
	FinalMaxRel float64
	// Rotations is the total number of rotations applied.
	Rotations int
}

// Eigen gathers the outcome's blocks into full factors W = A·U and U and
// extracts the sorted eigenpairs: W's columns are (near-)orthogonal, so
// λᵢ = uᵢᵀwᵢ and the eigenvector is uᵢ. For symmetric A with distinct |λ|
// these are the eigenpairs of A; a ±λ pair would need the Rayleigh-quotient
// refinement discussed in DESIGN.md, which random test matrices avoid
// almost surely. The outcome must come from a square problem.
func (o *Outcome) Eigen() *EigenResult {
	m := 0
	for _, b := range o.Blocks {
		m += b.NumCols()
	}
	w := matrix.NewDense(m, m)
	u := matrix.NewDense(m, m)
	Gather(o.Blocks, w, u)
	type pair struct {
		value float64
		col   int
	}
	pairs := make([]pair, m)
	for i := 0; i < m; i++ {
		pairs[i] = pair{value: matrix.Dot(u.Col(i), w.Col(i)), col: i}
	}
	sort.Slice(pairs, func(x, y int) bool { return pairs[x].value < pairs[y].value })
	res := &EigenResult{
		Values:      make([]float64, m),
		Vectors:     matrix.NewDense(m, m),
		Sweeps:      o.Sweeps,
		Converged:   o.Converged,
		Interrupted: o.Interrupted,
		FinalMaxRel: o.FinalMaxRel,
		Rotations:   o.Rotations,
	}
	for k, p := range pairs {
		res.Values[k] = p.value
		col := u.Col(p.col)
		// Normalize defensively; accumulated rotations keep u orthonormal
		// to machine precision already.
		norm := matrix.Norm2(col)
		dst := res.Vectors.Col(k)
		copy(dst, col)
		if norm > 0 && math.Abs(norm-1) > 1e-12 {
			matrix.Scale(dst, 1/norm)
		}
	}
	return res
}

// SVDResult holds a thin singular value decomposition A = U·diag(Σ)·Vᵀ with
// singular values in descending order.
type SVDResult struct {
	// Values are the singular values, descending.
	Values []float64
	// U is rows×cols with orthonormal columns (left singular vectors).
	U *matrix.Dense
	// V is cols×cols orthogonal (right singular vectors).
	V *matrix.Dense
	// Sweeps, Converged and Rotations mirror EigenResult.
	Sweeps    int
	Converged bool
	Rotations int
}

// SVD extracts the decomposition from the outcome of a NewSVDProblem run:
// σᵢ = ‖wᵢ‖, uᵢ = wᵢ/σᵢ, vᵢ accumulated.
func (o *Outcome) SVD() *SVDResult {
	type col struct {
		sigma float64
		w, v  []float64
	}
	var cols []col
	rows := 0
	for _, b := range o.Blocks {
		for k := range b.Cols {
			rows = len(b.A[k])
			cols = append(cols, col{sigma: matrix.Norm2(b.A[k]), w: b.A[k], v: b.U[k]})
		}
	}
	sort.Slice(cols, func(i, j int) bool { return cols[i].sigma > cols[j].sigma })
	n := len(cols)
	res := &SVDResult{
		Values:    make([]float64, n),
		U:         matrix.NewDense(rows, n),
		V:         matrix.NewDense(n, n),
		Sweeps:    o.Sweeps,
		Converged: o.Converged,
		Rotations: o.Rotations,
	}
	for i, c := range cols {
		res.Values[i] = c.sigma
		u := res.U.Col(i)
		copy(u, c.w)
		if c.sigma > 0 {
			matrix.Scale(u, 1/c.sigma)
		}
		res.V.SetCol(i, c.v)
	}
	return res
}

// ReconstructionError returns ‖A - U·diag(Σ)·Vᵀ‖_F / ‖A‖_F.
func (r *SVDResult) ReconstructionError(a *matrix.Dense) float64 {
	normA := a.FrobeniusNorm()
	if normA == 0 {
		normA = 1
	}
	diff := 0.0
	for j := 0; j < a.Cols; j++ {
		// column j of U·Σ·Vᵀ = Σ_k σ_k·u_k·V[j,k]
		rec := make([]float64, a.Rows)
		for k := 0; k < a.Cols; k++ {
			w := r.Values[k] * r.V.At(j, k)
			if w == 0 {
				continue
			}
			matrix.Axpy(w, r.U.Col(k), rec)
		}
		d := matrix.SubNorm2(rec, a.Col(j))
		diff += d * d
	}
	return math.Sqrt(diff) / normA
}
