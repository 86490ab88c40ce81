// Command jacobitool is the command-line interface to the reproduction of
// "Jacobi Orderings for Multi-Port Hypercubes" (Royo, González,
// Valero-García; IPPS 1998). It prints the paper's link sequences, verifies
// the orderings, regenerates every table and figure of the evaluation
// section, and runs eigensolves on the emulated multi-port hypercube.
//
// Usage:
//
//	jacobitool <command> [flags]
//
// Commands:
//
//	sequences  print and analyze the D_e link sequences of every ordering
//	verify     machine-check the round-robin property of the orderings
//	table1     regenerate Table 1 (α of permuted-BR vs lower bound)
//	table2     regenerate Table 2 (convergence of the orderings)
//	figure2    regenerate a panel of Figure 2 (relative communication cost)
//	alphatable α for every ordering and phase (ablation E7)
//	degrees    sequence degree for every ordering and phase (ablation E8)
//	pipeline   print a communication-pipelining stage schedule
//	solve      run a distributed eigensolve on a pluggable execution backend
//	simulate   compare emulated communication time against the analytic model
//	bench      headline backend metrics, optionally written as BENCH_<date>.json
//	tune       search ordering/pipelining plans per job shape (offline research)
//	serve      the concurrent batch-solve service over its HTTP API (v2);
//	           -data makes it durable (crash recovery + solve resume)
//	batch      solve a manifest of problems concurrently, with a summary table
//	submit     submit one eigensolve through the client API (local or -remote)
//	watch      stream a remote job's progress events until it finishes
//	loadgen    open-loop Poisson load driver with a JSON latency/SLO report
//
// serve, batch, submit, watch and loadgen are all consumers of the public
// client package: one binary drives an in-process pool or a remote server
// with one -remote flag.
package main

import (
	"fmt"
	"os"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "sequences":
		err = cmdSequences(args)
	case "verify":
		err = cmdVerify(args)
	case "table1":
		err = cmdTable1(args)
	case "table2":
		err = cmdTable2(args)
	case "figure2":
		err = cmdFigure2(args)
	case "alphatable":
		err = cmdAlphaTable(args)
	case "degrees":
		err = cmdDegrees(args)
	case "pipeline":
		err = cmdPipeline(args)
	case "solve":
		err = cmdSolve(args)
	case "simulate":
		err = cmdSimulate(args)
	case "portsweep":
		err = cmdPortSweep(args)
	case "balance":
		err = cmdBalance(args)
	case "svd":
		err = cmdSVD(args)
	case "bench":
		err = cmdBench(args)
	case "tune":
		err = cmdTune(args)
	case "serve":
		err = cmdServe(args)
	case "batch":
		err = cmdBatch(args)
	case "submit":
		err = cmdSubmit(args)
	case "watch":
		err = cmdWatch(args)
	case "loadgen":
		err = cmdLoadgen(args)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "jacobitool: unknown command %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "jacobitool %s: %v\n", cmd, err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `jacobitool — Jacobi orderings for multi-port hypercubes (IPPS 1998)

usage: jacobitool <command> [flags]

commands:
  sequences   -e N                 print the D_e sequences of every ordering
  verify      -d D [-sweeps S]     machine-check the round-robin property
  table1      [-from E] [-to E]    Table 1: α(permuted-BR) vs lower bound
  table2      [-trials N] [-tol X] Table 2: average sweeps to convergence
  figure2     -m LOGM [-maxd D]    Figure 2 panel: relative comm cost curves
  alphatable  [-max E]             α for every ordering (ablation)
  degrees     [-max E]             sequence degree for every ordering
  pipeline    -e E -q Q [-o ORD]   print a pipelined stage schedule
  solve       -m N [-d D] [-o ORD] [-backend B] [-pipelined] [-oneport] eigensolve
  simulate    -m N [-d D] [-sweeps S] emulated vs analytic communication time
  bench       [-m N] [-d D] [-json]  headline backend metrics (BENCH_<date>.json)
  tune        [-shapes n:d[:p],...] [-manifest F] [-budget T] [-json] tuned-schedule search per job shape
  serve       [-addr A] [-workers W] [-data DIR] batch-solve service over HTTP (v2; -data = durable)
  batch       [-manifest F] [-remote URL] [-check] solve a manifest of problems concurrently
  submit      [-remote URL] [-n N] [-d D] [-watch] submit one eigensolve via the client API
  watch       -remote URL JOB        stream a remote job's progress events
  loadgen     [-remote URL] [-jobs N] [-rate R] [-out F] open-loop Poisson load run with JSON report
  portsweep   [-d D] [-m LOGM]     cost vs number of ports (k-port ablation)
  balance     [-d D] [-m N]        static + traced link-balance comparison
  svd         [-rows R] [-cols C]  singular value decomposition demo
`)
}
