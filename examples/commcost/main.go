// Commcost regenerates the paper's Figure 2 — the communication cost of the
// BR, pipelined-BR, permuted-BR and degree-4 orderings relative to the
// unpipelined BR CC-cube, across hypercube dimensions and the three matrix
// sizes of the paper's panels (2^18, 2^23, 2^32; Ts=1000, Tw=100).
//
//	go run ./examples/commcost
package main

import (
	"fmt"
	"log"

	"repro/internal/costmodel"
)

func main() {
	for _, logM := range []int{18, 23, 32} {
		pts, err := costmodel.Figure2Panel(logM, 15)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("── Figure 2 panel: m = 2^%d ──\n", logM)
		fmt.Println("  d   pipelined-BR  permuted-BR  degree-4  lower-bound")
		for _, p := range pts {
			marker := " "
			if p.PermutedBRDeep {
				marker = "*" // deep pipelining in every phase (filled symbols)
			}
			fmt.Printf(" %2d      %.3f        %.3f%s      %.3f      %.3f\n",
				p.D, p.PipelinedBR, p.PermutedBR, marker, p.Degree4, p.LowerBound)
		}
		fmt.Println()
	}
	fmt.Println("Shape checks against the paper:")
	fmt.Println("  - pipelined BR saturates at 1/2 (BR windows are half link-0)")
	fmt.Println("  - degree-4 is stable near 1/4 in every panel")
	fmt.Println("  - permuted-BR approaches the lower bound when blocks are large")
	fmt.Println("    enough for deep pipelining (m=2^32), but degrades toward the")
	fmt.Println("    pipelined-BR curve when small blocks force shallow mode (m=2^18)")
}
