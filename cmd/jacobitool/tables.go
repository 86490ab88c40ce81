package main

import (
	"flag"
	"fmt"

	"repro/internal/costmodel"
	"repro/internal/jacobi"
	"repro/internal/ordering"
	"repro/internal/sequence"
)

// cmdTable1 prints the reproduction of the paper's Table 1.
func cmdTable1(args []string) error {
	fs := flag.NewFlagSet("table1", flag.ContinueOnError)
	from := fs.Int("from", 7, "first exchange-phase dimension e")
	to := fs.Int("to", 14, "last exchange-phase dimension e")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rows, err := ordering.Table1(*from, *to)
	if err != nil {
		return err
	}
	paper := map[int]int{7: 23, 8: 43, 9: 67, 10: 131, 11: 289, 12: 577, 13: 776, 14: 1543}
	fmt.Println("Table 1: α of the permuted-BR ordering vs the lower bound ceil((2^e-1)/e)")
	fmt.Println("  e    α    lower-bound  α/lower-bound   paper-α")
	for _, r := range rows {
		paperStr := "-"
		if v, ok := paper[r.E]; ok {
			paperStr = fmt.Sprintf("%d", v)
		}
		fmt.Printf(" %2d  %5d  %6d       %.2f           %s\n", r.E, r.Alpha, r.LowerBound, r.Ratio, paperStr)
	}
	return nil
}

// cmdTable2 prints the reproduction of the paper's Table 2.
func cmdTable2(args []string) error {
	fs := flag.NewFlagSet("table2", flag.ContinueOnError)
	trials := fs.Int("trials", 30, "random matrices per (m, P) cell")
	tol := fs.Float64("tol", 0, "convergence threshold on off(AᵀA)/trace (0 = default 3.5e-4)")
	seed := fs.Int64("seed", 1998, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cells, err := jacobi.RunTable2(jacobi.Table2Config{Trials: *trials, Tol: *tol, Seed: *seed})
	if err != nil {
		return err
	}
	fmt.Printf("Table 2: average sweeps to convergence (%d matrices/cell, entries U[-1,1])\n", *trials)
	fmt.Println("   m    P      BR   permuted-BR   degree-4")
	for _, c := range cells {
		fmt.Printf(" %3d  %3d   %5.2f     %5.2f        %5.2f\n",
			c.M, c.P, c.Sweeps["BR"], c.Sweeps["permuted-BR"], c.Sweeps["degree-4"])
	}
	return nil
}

// cmdFigure2 prints one panel of Figure 2 as a table plus an ASCII plot.
func cmdFigure2(args []string) error {
	fs := flag.NewFlagSet("figure2", flag.ContinueOnError)
	logM := fs.Int("m", 23, "log2 of the matrix size (paper: 18, 23, 32)")
	maxD := fs.Int("maxd", 15, "largest hypercube dimension")
	if err := fs.Parse(args); err != nil {
		return err
	}
	pts, err := costmodel.Figure2Panel(*logM, *maxD)
	if err != nil {
		return err
	}
	fmt.Printf("Figure 2 (m = 2^%d, Ts=1000, Tw=100): communication cost relative to the BR CC-cube\n", *logM)
	fmt.Println("  d   pipelined-BR   permuted-BR    degree-4    lower-bound")
	for _, p := range pts {
		deep := ""
		if p.PermutedBRDeep {
			deep = " (deep)"
		}
		fmt.Printf(" %2d     %.3f          %.3f%-7s   %.3f        %.3f\n",
			p.D, p.PipelinedBR, p.PermutedBR, deep, p.Degree4, p.LowerBound)
	}
	fmt.Println()
	plotFigure2(pts)
	return nil
}

// plotFigure2 renders the four curves as a rough ASCII chart, cost ratio on
// the y axis (0..1), dimension on x.
func plotFigure2(pts []costmodel.Figure2Point) {
	const height = 20
	grid := make([][]byte, height+1)
	for i := range grid {
		grid[i] = make([]byte, len(pts)*4+2)
		for j := range grid[i] {
			grid[i][j] = ' '
		}
	}
	put := func(col int, ratio float64, ch byte) {
		row := height - int(ratio*float64(height)+0.5)
		if row < 0 {
			row = 0
		}
		if row > height {
			row = height
		}
		grid[row][2+col*4] = ch
	}
	for i, p := range pts {
		put(i, p.PipelinedBR, 'B')
		put(i, p.Degree4, '4')
		put(i, p.PermutedBR, 'P')
		put(i, p.LowerBound, 'L')
	}
	fmt.Println("  1.0 ┤ (B pipelined-BR, P permuted-BR, 4 degree-4, L lower bound)")
	for i, row := range grid {
		label := "      "
		switch i {
		case 0:
			label = " 1.00 "
		case height / 2:
			label = " 0.50 "
		case height:
			label = " 0.00 "
		}
		fmt.Printf("%s│%s\n", label, string(row))
	}
	fmt.Print("      └")
	for range pts {
		fmt.Print("────")
	}
	fmt.Println()
	fmt.Print("       ")
	for _, p := range pts {
		fmt.Printf("%-4d", p.D)
	}
	fmt.Println(" (hypercube dimension)")
}

// cmdAlphaTable prints α for every ordering family across phases.
func cmdAlphaTable(args []string) error {
	fs := flag.NewFlagSet("alphatable", flag.ContinueOnError)
	max := fs.Int("max", 14, "largest phase dimension e")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fmt.Println("α (max repetitions of one link in D_e) per ordering; lower is better for deep pipelining")
	fmt.Println("  e   lower-bound     BR        permuted-BR   degree-4   min-α")
	for e := 2; e <= *max; e++ {
		lb := sequence.LowerBoundAlpha(e)
		br := sequence.BRAlpha(e)
		pbr := sequence.PermutedBRAlpha(e)
		d4 := "-"
		if s, err := sequence.Degree4(e); err == nil {
			d4 = fmt.Sprintf("%d", s.Alpha())
		}
		ma := "-"
		if v, err := sequence.MinAlphaValue(e); err == nil {
			ma = fmt.Sprintf("%d", v)
		}
		fmt.Printf(" %2d   %8d   %8d   %8d      %8s   %5s\n", e, lb, br, pbr, d4, ma)
	}
	return nil
}

// cmdDegrees prints the Definition-2 degree of every ordering's sequences.
func cmdDegrees(args []string) error {
	fs := flag.NewFlagSet("degrees", flag.ContinueOnError)
	max := fs.Int("max", 12, "largest phase dimension e")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fmt.Println("sequence degree (Definition 2); shallow pipelining gains ≈ degree")
	fmt.Println("  e    BR   permuted-BR   degree-4   min-α")
	for e := 2; e <= *max; e++ {
		row := fmt.Sprintf(" %2d   %3d", e, sequence.BR(e).Degree())
		row += fmt.Sprintf("   %6d", sequence.PermutedBR(e).Degree())
		if s, err := sequence.Degree4(e); err == nil {
			row += fmt.Sprintf("        %3d", s.Degree())
		} else {
			row += "          -"
		}
		if s, err := sequence.MinAlpha(e); err == nil {
			row += fmt.Sprintf("     %3d", s.Degree())
		} else {
			row += "       -"
		}
		fmt.Println(row)
	}
	return nil
}

// cmdSimulate compares the emulated machine's measured communication time
// against the analytic model for a fixed number of sweeps.
func cmdSimulate(args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ContinueOnError)
	m := fs.Int("m", 64, "matrix size")
	d := fs.Int("d", 2, "hypercube dimension")
	sweeps := fs.Int("sweeps", 2, "fixed sweep count")
	ord := fs.String("o", "br", "ordering (br, pbr, d4, minalpha)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fam, err := ordering.FamilyByName(*ord)
	if err != nil {
		return err
	}
	measured, analytic, err := simulateVsAnalytic(*m, *d, *sweeps, fam)
	if err != nil {
		return err
	}
	fmt.Printf("unpipelined %s sweep on %d nodes, m=%d, %d sweeps (Ts=1000, Tw=100):\n",
		*ord, 1<<uint(*d), *m, *sweeps)
	fmt.Printf("  emulated machine makespan: %.0f model units\n", measured)
	fmt.Printf("  analytic model:            %.0f model units\n", analytic)
	fmt.Printf("  relative difference:       %+.2f%% (encoding headers explain the gap)\n",
		100*(measured-analytic)/analytic)
	return nil
}
