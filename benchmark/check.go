package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"

	"repro/client"
	"repro/internal/costmodel"
	"repro/internal/jacobi"
	"repro/internal/ordering"
)

const (
	// invariantTol bounds |Σλ − trace(A)| / Σ|λ| and |Σλ² − ‖A‖²_F| / ‖A‖²_F
	// of a converged result.
	invariantTol = 1e-9
	// referenceTol bounds max |λ − λ_ref| / max |λ_ref| against the
	// two-sided reference solver.
	referenceTol = 1e-9
	// baselineTol bounds an unpipelined analytic makespan against
	// costmodel.BaselineSweepCost: equal up to summation order.
	baselineTol = 1e-12
	// pipelinedTol bounds a pipelined analytic makespan against
	// costmodel.PipelinedSweepCost. The model's pipelining degree is bounded
	// by the columns of a block, and with fewer than pipelinedMinCols of them
	// the packets quantize coarsely: at n=256, d=5 (4 columns) permuted-BR
	// all-port runs 13.4% above the model, while every cell with 8 or more
	// columns stays within 3.3%. coarsePipelinedTol covers the former.
	pipelinedTol       = 0.05
	coarsePipelinedTol = 0.15
	pipelinedMinCols   = 8
	// emulatedTol bounds emulated against analytic makespans (the emulator
	// also carries encoding headers).
	emulatedTol = 0.02
)

// anchorJSON holds jacobi.SolveTwoSided's eigenvalues of the solve-large
// anchor matrix (n=512, seed 512), regenerated by
// `go test -run TestAnchorGolden -update`.
//
//go:embed testdata/anchor-n512.json
var anchorJSON []byte

type golden struct {
	N      int       `json:"n"`
	Seed   int64     `json:"seed"`
	Values []float64 `json:"values"`
}

// check verifies every finished job and marks wrong results:
//
//   - a converged result keeps the trace and the Frobenius norm of its
//     matrix: Σλ = trace(A) and Σλ² = ‖A‖²_F;
//   - the first converged job of each (n, d) shape matches the two-sided
//     reference solver (the committed anchor values at n=512);
//   - a hot-problem repeat served from the result cache is bit-identical
//     to a solve of that problem on the same backend, and one solved again
//     agrees with the first solve to referenceTol (a lane's rounding
//     depends on its lane mates, so a second lane solve may differ in the
//     last bits);
//   - a paper-grid cell agrees with the cost model: an unpipelined
//     analytic makespan equals BaselineSweepCost, a pipelined one is within
//     pipelinedTol of PipelinedSweepCost, and the emulated
//     machine is within emulatedTol of the analytic one with equal message
//     counts and bit-identical values.
func (e *env) check(outs []*outcome, log io.Writer) {
	sorted := append([]*outcome(nil), outs...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].j.idx < sorted[b].j.idx })
	wrong := 0
	fail := func(o *outcome, err error) {
		o.err = err
		if wrong < 10 {
			fmt.Fprintf(log, "benchmark: %s: wrong result: %v\n", e.w.name, err)
		}
		wrong++
	}
	referenced := map[[2]int]bool{}
	hot := map[string][]*outcome{} // hot problem and backend → its runs
	for _, o := range sorted {
		if o.err != nil || o.res == nil {
			continue
		}
		j, res := o.j, o.res
		if j.spec.FixedSweeps > 0 {
			if err := checkCell(j, res); err != nil {
				fail(o, err)
			}
			continue
		}
		if err := checkConverged(j, res); err != nil {
			fail(o, err)
			continue
		}
		if shape := [2]int{j.n, j.spec.Dim}; !referenced[shape] {
			referenced[shape] = true
			if err := checkReference(j, res); err != nil {
				fail(o, err)
				continue
			}
		}
		if j.hot >= 0 {
			key := fmt.Sprintf("%d/%s", j.hot, res.Backend)
			hot[key] = append(hot[key], o)
		}
	}
	for _, runs := range hot {
		var solved []*client.Result
		for _, o := range runs {
			if !o.term.CacheHit {
				solved = append(solved, o.res)
			}
		}
		for _, o := range runs {
			switch {
			case o.term.CacheHit && !slices.ContainsFunc(solved, func(r *client.Result) bool { return sameBits(r, o.res) }):
				fail(o, fmt.Errorf("job %d: cache hit for hot problem %d matches none of its solves", o.j.idx, o.j.hot))
			case !o.term.CacheHit && maxRelDiff(solved[0].Values, o.res.Values) > referenceTol:
				fail(o, fmt.Errorf("job %d: hot problem %d solved again disagrees with its first solve", o.j.idx, o.j.hot))
			}
		}
	}
	for _, pair := range gridPairs(sorted) {
		emu, ana := pair[0], pair[1]
		re, ra := emu.res, ana.res
		switch {
		case math.Abs(re.Makespan/ra.Makespan-1) > emulatedTol:
			fail(emu, fmt.Errorf("job %d: emulated makespan %g vs analytic %g", emu.j.idx, re.Makespan, ra.Makespan))
		case re.Messages != ra.Messages:
			fail(emu, fmt.Errorf("job %d: emulated sent %d messages, analytic %d", emu.j.idx, re.Messages, ra.Messages))
		case !sameBits(re, ra):
			fail(emu, fmt.Errorf("job %d: emulated and analytic values differ", emu.j.idx))
		}
	}
}

// checkConverged checks a converged result against its matrix's trace and
// Frobenius norm.
func checkConverged(j *job, res *client.Result) error {
	if !res.Converged || len(res.Values) != j.n {
		return fmt.Errorf("job %d: converged=%v with %d values, want %d", j.idx, res.Converged, len(res.Values), j.n)
	}
	tr, frob2 := j.traceA, j.frob2
	if !j.explicit {
		tr, frob2 = matrixStats(randomMatrix(j.n, j.mseed))
	}
	var sum, sumAbs, sumSq float64
	for _, v := range res.Values {
		sum += v
		sumAbs += math.Abs(v)
		sumSq += v * v
	}
	if math.Abs(sum-tr) > invariantTol*sumAbs {
		return fmt.Errorf("job %d: eigenvalue sum %.17g, trace %.17g", j.idx, sum, tr)
	}
	if math.Abs(sumSq-frob2) > invariantTol*frob2 {
		return fmt.Errorf("job %d: eigenvalue square sum %.17g, squared Frobenius norm %.17g", j.idx, sumSq, frob2)
	}
	return nil
}

// checkReference compares a converged result with jacobi.SolveTwoSided on
// the same matrix.
func checkReference(j *job, res *client.Result) error {
	var ref []float64
	if j.n == anchorN && j.mseed == anchorSeed {
		var g golden
		if err := json.Unmarshal(anchorJSON, &g); err != nil {
			return fmt.Errorf("anchor values: %w", err)
		}
		if g.N != anchorN || g.Seed != anchorSeed {
			return errors.New("anchor values are for another matrix")
		}
		ref = g.Values
	} else {
		r, err := jacobi.SolveTwoSided(randomMatrix(j.n, j.mseed), jacobi.Options{})
		if err != nil {
			return fmt.Errorf("job %d: reference solve: %w", j.idx, err)
		}
		ref = r.Values
	}
	if d := maxRelDiff(ref, res.Values); d > referenceTol {
		return fmt.Errorf("job %d: eigenvalues differ from the two-sided reference by %.3g of the largest", j.idx, d)
	}
	return nil
}

// maxRelDiff is max |vals − ref| over max |ref|; +Inf for unequal lengths.
func maxRelDiff(ref, vals []float64) float64 {
	if len(ref) != len(vals) {
		return math.Inf(1)
	}
	scale, diff := 0.0, 0.0
	for i, v := range ref {
		scale = math.Max(scale, math.Abs(v))
		diff = math.Max(diff, math.Abs(vals[i]-v))
	}
	return diff / scale
}

// checkCell checks one paper-grid cell against the cost model.
func checkCell(j *job, res *client.Result) error {
	s := j.spec
	if res.Sweeps != 1 || res.Backend != s.Backend || len(res.Values) != j.n {
		return fmt.Errorf("job %d: %d sweeps on %s with %d values, want 1 on %s with %d", j.idx, res.Sweeps, res.Backend, len(res.Values), s.Backend, j.n)
	}
	if s.Trace && len(res.Trace) == 0 {
		return fmt.Errorf("job %d: trace requested, none returned", j.idx)
	}
	if s.Backend != "analytic" {
		return nil
	}
	p := costmodel.Params{M: float64(j.n), Ts: 1000, Tw: 100}
	if s.OnePort {
		p.Ports = 1
	}
	switch {
	case s.Pipelined:
		fam, err := ordering.FamilyByName(s.Ordering)
		if err != nil {
			return err
		}
		model, err := costmodel.PipelinedSweepCost(s.Dim, fam, p)
		if err != nil {
			return err
		}
		tol := pipelinedTol
		if j.n>>(s.Dim+1) < pipelinedMinCols {
			tol = coarsePipelinedTol
		}
		if math.Abs(res.Makespan/model.Total-1) > tol {
			return fmt.Errorf("job %d: pipelined makespan %g, model %g", j.idx, res.Makespan, model.Total)
		}
	default:
		if base := costmodel.BaselineSweepCost(s.Dim, p); math.Abs(res.Makespan-base) > baselineTol*base {
			return fmt.Errorf("job %d: makespan %.17g, BaselineSweepCost %.17g", j.idx, res.Makespan, base)
		}
	}
	return nil
}

// sameBits reports whether two results hold bit-identical eigenvalues after
// the same number of sweeps.
func sameBits(a, b *client.Result) bool {
	if a.Sweeps != b.Sweeps || len(a.Values) != len(b.Values) {
		return false
	}
	for i, v := range a.Values {
		if math.Float64bits(v) != math.Float64bits(b.Values[i]) {
			return false
		}
	}
	return true
}
