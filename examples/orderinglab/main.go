// Orderinglab walks through the paper's link-sequence machinery: the BR
// sequence, the permuted-BR transformation (reproducing the paper's worked
// example), the degree-4 construction, the minimum-α sequences, and the α /
// degree metrics that drive the performance results.
//
//	go run ./examples/orderinglab
package main

import (
	"fmt"
	"log"

	"repro/internal/ordering"
	"repro/internal/sequence"
)

func main() {
	fmt.Println("== The BR sequence (Mantharam & Eberlein) ==")
	for e := 1; e <= 5; e++ {
		fmt.Printf("  D_%d^BR = %s\n", e, sequence.BR(e).String())
	}
	fmt.Println("α(D_e^BR) = 2^(e-1): link 0 appears in every other position,")
	fmt.Println("which is why pipelining BR can never beat a factor of 2.")
	fmt.Println()

	fmt.Println("== The permuted-BR transformation (paper section 3.2.1) ==")
	fmt.Printf("  start:  D_5^BR   = %s\n", sequence.BR(5).String())
	fmt.Printf("  result: D_5^p-BR = %s\n", sequence.PermutedBR(5).String())
	fmt.Println("  (matches the paper's printed worked example exactly)")
	fmt.Println()

	fmt.Println("== Property 1: link permutations preserve the Hamiltonian property ==")
	s, _ := sequence.ParseSeq("0102010")
	perm := sequence.Transposition(3, 0, 1)
	out, err := sequence.ApplySubcubePermutation(s, 3, 4, 7, perm)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %s with links 0,1 swapped in its last 3 elements -> %s (still a 3-sequence: %v)\n",
		s.String(), out.String(), sequence.IsESequence(out, 3))
	fmt.Println()

	fmt.Println("== The degree-4 sequence (section 3.3) ==")
	d4, _ := sequence.Degree4(5)
	fmt.Printf("  D_5^D4 = %s\n", d4.String())
	fmt.Printf("  degree = %d: most windows of 4 consecutive links are all distinct,\n", d4.Degree())
	fmt.Println("  so shallow pipelining with Q=4 drives 4 links at once.")
	fmt.Println()

	fmt.Println("== The minimum-α sequences (section 3.1, exhaustive search, e < 7) ==")
	for e := 2; e <= 6; e++ {
		ma, err := sequence.MinAlpha(e)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  e=%d: α=%d = lower bound %d  %s\n",
			e, ma.Alpha(), sequence.LowerBoundAlpha(e), shorten(ma.String(), 40))
	}
	fmt.Println()

	fmt.Println("== Table 1 style analysis of every ordering at e=9 ==")
	for _, fam := range ordering.AllFamilies() {
		rep, err := ordering.AnalyzeSequence(fam, 9)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-11s α=%-4d (%.2fx lower bound)  degree=%d  valid=%v\n",
			fam.Name(), rep.Alpha, rep.Ratio, rep.Degree, rep.Valid)
	}
	fmt.Println()

	fmt.Println("== Our own search: a fresh optimal sequence for the 4-cube ==")
	found, ok := sequence.FindLowAlphaSequence(4, sequence.LowerBoundAlpha(4), 0)
	if !ok {
		log.Fatal("search failed")
	}
	fmt.Printf("  found %s with α=%d (validated: %v)\n",
		found.String(), found.Alpha(), sequence.IsESequence(found, 4))
}

func shorten(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}
