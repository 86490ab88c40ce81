package main

import (
	"flag"
	"fmt"
	"math/rand"

	"repro/internal/ccube"
	"repro/internal/costmodel"
	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/ordering"
)

// cmdSequences prints the D_e sequences of every ordering with analysis.
func cmdSequences(args []string) error {
	fs := flag.NewFlagSet("sequences", flag.ContinueOnError)
	e := fs.Int("e", 5, "exchange-phase dimension")
	if err := fs.Parse(args); err != nil {
		return err
	}
	for _, fam := range ordering.AllFamilies() {
		rep, err := ordering.AnalyzeSequence(fam, *e)
		if err != nil {
			return err
		}
		seq := fam.Phase(*e)
		fmt.Printf("%-11s e=%d  α=%-4d (lb %d, ratio %.2f)  degree=%d  valid=%v\n",
			fam.Name(), rep.E, rep.Alpha, rep.LowerBound, rep.Ratio, rep.Degree, rep.Valid)
		if len(seq) <= 127 {
			fmt.Printf("            %s\n", seq.String())
		} else {
			fmt.Printf("            (%d links)\n", len(seq))
		}
	}
	return nil
}

// cmdVerify machine-checks the round-robin property of every ordering.
func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	d := fs.Int("d", 4, "hypercube dimension")
	sweeps := fs.Int("sweeps", 5, "consecutive sweeps to verify")
	if err := fs.Parse(args); err != nil {
		return err
	}
	for _, fam := range ordering.AllFamilies() {
		if err := ordering.VerifyOrdering(fam, *d, *sweeps); err != nil {
			return fmt.Errorf("%s: %w", fam.Name(), err)
		}
		fmt.Printf("%-11s d=%d: %d sweeps verified — every block pair exactly once per sweep, CC-cube property holds\n",
			fam.Name(), *d, *sweeps)
	}
	return nil
}

// cmdPipeline prints the stage schedule of a pipelined exchange phase.
func cmdPipeline(args []string) error {
	fs := flag.NewFlagSet("pipeline", flag.ContinueOnError)
	e := fs.Int("e", 3, "exchange-phase dimension")
	q := fs.Int("q", 3, "pipelining degree")
	ord := fs.String("o", "br", "ordering (br, pbr, d4, minalpha)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fam, err := ordering.FamilyByName(*ord)
	if err != nil {
		return err
	}
	seq, err := ordering.LinkSequence(fam, *e)
	if err != nil {
		return err
	}
	sched, err := ccube.Build(seq, *q)
	if err != nil {
		return err
	}
	mode := "shallow"
	if sched.Deep() {
		mode = "deep"
	}
	fmt.Printf("pipelined CC-cube schedule: %s phase e=%d (K=%d iterations), Q=%d (%s mode)\n",
		*ord, *e, sched.K, sched.Q, mode)
	fmt.Printf("link sequence: %s\n", seq.String())
	fmt.Printf("%d stages: prologue %d, kernel %d, epilogue %d\n",
		len(sched.Stages), sched.PrologueLen(), sched.KernelLen(), sched.PrologueLen())
	for _, st := range sched.Stages {
		fmt.Printf("  stage %2d: compute", st.Index)
		for _, p := range st.Packets {
			fmt.Printf(" (it %d, pkt %d)", p.K, p.Q)
		}
		fmt.Printf("  | send")
		for _, send := range st.Sends {
			fmt.Printf(" link%d×%d", send.Link, len(send.Packets))
		}
		fmt.Println()
	}
	return nil
}

// cmdSolve runs a distributed eigensolve on the selected execution backend.
func cmdSolve(args []string) error {
	fs := flag.NewFlagSet("solve", flag.ContinueOnError)
	m := fs.Int("m", 32, "matrix size")
	d := fs.Int("d", 2, "hypercube dimension")
	ord := fs.String("o", "pbr", "ordering (br, pbr, d4, minalpha)")
	backend := fs.String("backend", "emulated", "execution backend (emulated, multicore, analytic)")
	pipelined := fs.Bool("pipelined", false, "apply communication pipelining")
	onePort := fs.Bool("oneport", false, "one-port machine configuration")
	seed := fs.Int64("seed", 42, "random matrix seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fam, err := ordering.FamilyByName(*ord)
	if err != nil {
		return err
	}
	// The paper's Figure 2 machine: Ts=1000, Tw=100, Tc=0.
	mc := machine.Config{Ts: 1000, Tw: 100}
	if *onePort {
		mc.Ports = machine.OnePort
	}
	be, err := engine.NewBackend(*backend, mc)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(*seed))
	a := matrix.RandomSymmetric(*m, rng)
	prob, err := engine.NewProblem(a, *d, nil)
	if err != nil {
		return err
	}
	prob.Family = fam
	prob.Pipelined = *pipelined
	prob.PipelineTs, prob.PipelineTw, prob.PipelinePorts = mc.Ts, mc.Tw, int(mc.Ports)
	out, stats, err := prob.Run(be)
	if err != nil {
		return err
	}
	eig := out.Eigen()
	fmt.Printf("solved %dx%d random symmetric matrix on %d-node hypercube (%s ordering, %s backend, pipelined=%v)\n",
		*m, *m, 1<<uint(*d), *ord, *backend, *pipelined)
	fmt.Printf("  sweeps: %d (converged=%v), rotations: %d\n", eig.Sweeps, eig.Converged, eig.Rotations)
	fmt.Printf("  residual max_i ||A·vᵢ-λᵢvᵢ||/||A||_F: %.2e\n", matrix.EigenResidual(a, eig.Values, eig.Vectors))
	fmt.Printf("  modeled time: %.0f units; messages: %d; elements: %d; wall: %v\n",
		stats.Makespan, stats.Messages, stats.Elements, stats.WallTime)
	fmt.Printf("  smallest eigenvalues: %.5v\n", eig.Values[:min(len(eig.Values), 8)])
	return nil
}

// simulateVsAnalytic runs a fixed-sweep unpipelined solve on the emulated
// machine and returns the measured makespan alongside the analytic
// baseline cost.
func simulateVsAnalytic(m, d, sweeps int, fam ordering.Family) (measured, analytic float64, err error) {
	rng := rand.New(rand.NewSource(7))
	prob, err := engine.NewProblem(matrix.RandomSymmetric(m, rng), d, nil)
	if err != nil {
		return 0, 0, err
	}
	prob.Family = fam
	prob.FixedSweeps = sweeps
	_, stats, err := prob.Run(&engine.Emulated{Ts: 1000, Tw: 100})
	if err != nil {
		return 0, 0, err
	}
	base := costmodel.BaselineSweepCost(d, costmodel.Params{M: float64(m), Ts: 1000, Tw: 100})
	return stats.Makespan, base * float64(sweeps), nil
}
