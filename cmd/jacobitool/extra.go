package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/costmodel"
	"repro/internal/engine"
	"repro/internal/matrix"
	"repro/internal/ordering"
	"repro/internal/trace"
)

// cmdPortSweep prints the port-count ablation (E10): how each pipelined
// ordering's relative cost changes as the number of simultaneously usable
// links per node grows from 1 (one-port) to d (all-port).
func cmdPortSweep(args []string) error {
	fs := flag.NewFlagSet("portsweep", flag.ContinueOnError)
	d := fs.Int("d", 8, "hypercube dimension")
	logM := fs.Int("m", 23, "log2 of matrix size")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ks := []int{1, 2, 3, 4, 6, 8, 0}
	pts, err := costmodel.PortCountSweep(*d, ks, costmodel.Params{
		M: math.Pow(2, float64(*logM)), Ts: 1000, Tw: 100,
	})
	if err != nil {
		return err
	}
	fmt.Printf("relative communication cost vs port count (d=%d, m=2^%d):\n", *d, *logM)
	fmt.Println("  ports   pipelined-BR   permuted-BR   degree-4")
	for _, p := range pts {
		label := fmt.Sprintf("%5d", p.K)
		if p.K == 0 {
			label = "  all"
		}
		fmt.Printf("  %s      %.3f          %.3f        %.3f\n",
			label, p.PipelinedBR, p.PermutedBR, p.Degree4)
	}
	fmt.Println()
	fmt.Println("degree-4 saturates around 4 ports (its windows hold 4 distinct links);")
	fmt.Println("permuted-BR under deep pipelining keeps gaining with every port.")
	return nil
}

// cmdBalance shows the link-balance story statically (schedule analysis)
// and dynamically (traced execution).
func cmdBalance(args []string) error {
	fs := flag.NewFlagSet("balance", flag.ContinueOnError)
	d := fs.Int("d", 4, "hypercube dimension")
	m := fs.Int("m", 32, "matrix size for the traced run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fmt.Printf("static per-phase link balance at e=%d (imbalance 1.0 = uniform):\n", *d)
	for _, fam := range ordering.AllFamilies() {
		u, err := ordering.PhaseLinkUsage(fam, *d)
		if err != nil {
			return err
		}
		fmt.Printf("  %-11s counts=%v  imbalance=%.2f  entropy=%.3f\n",
			fam.Name(), u.PerDim, u.Imbalance, u.BalanceEntropy())
	}
	fmt.Println()
	fmt.Println("dynamic check: one traced sweep of the distributed solver")
	rng := rand.New(rand.NewSource(7))
	a := matrix.RandomSymmetric(*m, rng)
	for _, fam := range []ordering.Family{ordering.NewBRFamily(), ordering.NewPermutedBRFamily()} {
		prob, err := engine.NewProblem(a, *d, nil)
		if err != nil {
			return err
		}
		prob.Family = fam
		prob.FixedSweeps = 1
		col := trace.NewCollector()
		if _, _, err := prob.Run(&engine.Emulated{Ts: 1000, Tw: 100, OnEvent: col.Record}); err != nil {
			return err
		}
		sum := col.Summarize(*d)
		fmt.Printf("\n%s ordering (busiest dimension carries %.0f%% of messages):\n", fam.Name(), sum.MaxDimShare*100)
		fmt.Print(sum.FormatDimShares())
	}
	return nil
}

// cmdSVD runs the SVD variant of the one-sided method.
func cmdSVD(args []string) error {
	fs := flag.NewFlagSet("svd", flag.ContinueOnError)
	rows := fs.Int("rows", 24, "matrix rows")
	cols := fs.Int("cols", 12, "matrix columns")
	d := fs.Int("d", 2, "virtual hypercube dimension for the ordering")
	ord := fs.String("o", "d4", "ordering (br, pbr, d4, minalpha)")
	seed := fs.Int64("seed", 9, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fam, err := ordering.FamilyByName(*ord)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(*seed))
	a := matrix.RandomDense(*rows, *cols, rng)
	prob, err := engine.NewSVDProblem(a, *d)
	if err != nil {
		return err
	}
	prob.Family = fam
	out, err := prob.RunCentral()
	if err != nil {
		return err
	}
	svd := out.SVD()
	fmt.Printf("SVD of a random %dx%d matrix (%s ordering): %d sweeps, converged=%v\n",
		*rows, *cols, *ord, svd.Sweeps, svd.Converged)
	show := len(svd.Values)
	if show > 8 {
		show = 8
	}
	fmt.Printf("  largest singular values: %.4v\n", svd.Values[:show])
	fmt.Printf("  reconstruction error ||A - UΣVᵀ||/||A||: %.2e\n",
		svd.ReconstructionError(a))
	fmt.Printf("  orthogonality: U %.2e, V %.2e\n",
		matrix.OrthogonalityError(svd.U), matrix.OrthogonalityError(svd.V))
	return nil
}
