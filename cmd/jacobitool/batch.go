package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"repro/client"
	"repro/internal/engine"
	"repro/internal/ordering"
)

// cmdBatch solves a manifest of problems concurrently through the client
// API and prints a per-job summary table. The manifest is a JSON array of
// job specs (the client package's Spec wire shape); without -manifest a
// built-in 16-problem demo manifest runs. With -remote the batch goes to a
// `jacobitool serve` instance in one POST /api/v2/batch request; without
// it an in-process pool solves it. With -check every (non-fixed-sweep)
// job's eigenvalues are verified against a sequential single-solve run of
// the same problem.
func cmdBatch(args []string) error {
	fs := flag.NewFlagSet("batch", flag.ContinueOnError)
	manifest := fs.String("manifest", "", "path to a JSON manifest (array of job specs); default: built-in 16-problem demo")
	remote := fs.String("remote", "", "server base URL; empty = solve in-process")
	workers := fs.Int("workers", 4, "in-process solve concurrency (local mode)")
	threshold := fs.Int("threshold", 0, "local backend auto-selection threshold (0 = 64, negative = never multicore)")
	check := fs.Bool("check", false, "verify each job against a sequential single-solve run")
	timeout := fs.Duration("timeout", 10*time.Minute, "overall batch deadline")
	laneW := fs.Int("lane-width", 0, "batched-lane width for in-process small jobs (0 disables; >= 2 enables SIMD-lockstep lanes)")
	laneWin := fs.Duration("lane-window", 0, "the longest a lane leader waits for same-shape lane mates; it waits only while a mate is due (0 = service default)")
	cacheMax := fs.Int64("cache-max", 0, "result-cache byte budget for the in-process pool (0 = entries-only bound)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var specs []client.Spec
	if *manifest == "" {
		specs = demoManifest()
		fmt.Printf("batch: built-in demo manifest (%d problems)\n", len(specs))
	} else {
		data, err := os.ReadFile(*manifest)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &specs); err != nil {
			return fmt.Errorf("parse %s: %w", *manifest, err)
		}
		fmt.Printf("batch: %s (%d problems)\n", *manifest, len(specs))
	}

	c, err := newClient(*remote, client.LocalConfig{
		Workers:            *workers,
		MulticoreThreshold: *threshold,
		LaneWidth:          *laneW,
		LaneWindow:         *laneWin,
		CacheMaxBytes:      *cacheMax,
	})
	if err != nil {
		return err
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	start := time.Now()
	handles, err := client.SubmitAll(ctx, c, specs)
	if err != nil {
		return err
	}

	fmt.Printf("%-12s %5s %3s %-9s %-10s %-8s %6s %5s %12s %9s %5s\n",
		"job", "n", "d", "ordering", "backend", "state", "sweeps", "conv", "makespan", "wall ms", "cache")
	failed := 0
	statuses := make([]*client.Status, len(handles))
	results := make([]*client.Result, len(handles))
	for i, h := range handles {
		res, werr := h.Wait(ctx)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		st, serr := h.Status(ctx)
		if serr != nil {
			return serr
		}
		statuses[i] = st
		label := st.Label
		if label == "" {
			label = st.ID
		}
		if werr != nil {
			failed++
			fmt.Printf("%-12s %5d %3d %-9s %-10s %-8s %v\n", label, st.N, st.Dim, st.Ordering, st.Backend, st.State, werr)
			continue
		}
		results[i] = res
		cache := ""
		if st.CacheHit {
			cache = "hit"
		}
		fmt.Printf("%-12s %5d %3d %-9s %-10s %-8s %6d %5v %12.0f %9.1f %5s\n",
			label, st.N, st.Dim, st.Ordering, st.Backend, st.State,
			res.Sweeps, res.Converged, res.Makespan, res.WallMs, cache)
	}
	elapsed := time.Since(start)

	m, err := c.Metrics(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("\n%d jobs in %v (%.1f jobs/sec)\n",
		len(handles), elapsed.Round(time.Millisecond), float64(len(handles))/elapsed.Seconds())
	fmt.Printf("  wall p50 %.1f ms, p99 %.1f ms; cache hits %d; aggregate modeled makespan %.0f units\n",
		m.WallP50Ms, m.WallP99Ms, m.CacheHits, m.TotalModeledMakespan)
	fmt.Printf("  schedule cache: %d build(s), %d hit(s)\n", m.ScheduleBuilds, m.ScheduleHits)

	if failed > 0 {
		return fmt.Errorf("%d job(s) did not complete", failed)
	}
	if *check {
		return checkBatch(specs, statuses, results)
	}
	return nil
}

// checkBatch re-runs every job sequentially (the engine's central replay —
// the single-solve reference) and verifies the eigenvalues. Jobs that ran
// on a reference-kernel backend (emulated, analytic) must match bitwise;
// jobs resolved to the multicore backend ran the fused kernels and must
// match within the kernel layer's solve-level ulp budget (DESIGN.md,
// "Kernel layer"). Two job kinds are skipped: fixed-sweep jobs (including
// cost-only queries — the sequential solver always runs to convergence)
// and pipelined jobs with a degree other than 1 (Q > 1 reorganizes the
// rotation order, so they match to convergence tolerance, not bitwise).
func checkBatch(specs []client.Spec, statuses []*client.Status, results []*client.Result) error {
	// fusedTol is the solve-level budget for fused-kernel results against
	// the reference replay (the conformance suite's bound).
	const fusedTol = 1e-8
	checked, fused, skipped := 0, 0, 0
	for i, spec := range specs {
		if spec.FixedSweeps > 0 || spec.CostOnly || (spec.Pipelined && spec.PipelineQ != 1) {
			skipped++
			continue
		}
		res := results[i]
		if res == nil {
			return fmt.Errorf("job %d has no result to check", i)
		}
		// The status carries the ordering the service resolved at
		// submission (defaults applied) — no client-side copy of the
		// defaulting rules.
		ordName := statuses[i].Ordering
		if ordName == "" {
			ordName = spec.Ordering
		}
		fam, err := ordering.FamilyByName(ordName)
		if err != nil {
			return err
		}
		// The client-side lowering rebuilds the input exactly as the server
		// did, so -check needs no server-retained copy of the O(n²) payload.
		jspec, err := client.ServiceSpec(spec)
		if err != nil {
			return fmt.Errorf("job %d: %w", i, err)
		}
		prob, err := engine.NewProblem(jspec.Matrix, spec.Dim, nil)
		if err != nil {
			return fmt.Errorf("job %d sequential reference: %w", i, err)
		}
		prob.Family = fam
		prob.Opts = engine.Options{Tol: spec.Tol, MaxSweeps: spec.MaxSweeps}
		out, err := prob.RunCentral()
		if err != nil {
			return fmt.Errorf("job %d sequential reference: %w", i, err)
		}
		seq := out.Eigen()
		if len(seq.Values) != len(res.Values) {
			return fmt.Errorf("job %d: %d values vs sequential %d", i, len(res.Values), len(seq.Values))
		}
		if statuses[i].Backend == "multicore" {
			for k := range seq.Values {
				if rel := math.Abs(res.Values[k]-seq.Values[k]) / (1 + math.Abs(seq.Values[k])); rel > fusedTol {
					return fmt.Errorf("job %d eigenvalue %d: multicore %.17g drifts %g from sequential %.17g (budget %g)",
						i, k, res.Values[k], rel, seq.Values[k], fusedTol)
				}
			}
			fused++
			continue
		}
		for k := range seq.Values {
			if res.Values[k] != seq.Values[k] {
				return fmt.Errorf("job %d eigenvalue %d: batch %.17g != sequential %.17g",
					i, k, res.Values[k], seq.Values[k])
			}
		}
		checked++
	}
	fmt.Printf("  check: %d job(s) bit-identical to sequential single-solve runs, %d fused multicore job(s) within the ulp budget, %d skipped (fixed-sweep or deep-pipelined)\n",
		checked, fused, skipped)
	return nil
}

// demoManifest builds the default 16-problem batch: a spread of sizes,
// dimensions, orderings and job kinds (plain, pipelined, cost-only,
// traced, and one deliberate duplicate to exercise the result cache).
func demoManifest() []client.Spec {
	orderings := []string{"br", "pbr", "d4", "minalpha"}
	var specs []client.Spec
	for i := 0; i < 12; i++ {
		specs = append(specs, client.Spec{
			Label:    fmt.Sprintf("solve-%02d", i),
			Random:   &client.RandomSpec{N: 24 + 8*(i%4), Seed: int64(1000 + i)},
			Dim:      1 + i%2,
			Ordering: orderings[i%len(orderings)],
		})
	}
	specs = append(specs,
		client.Spec{Label: "dup-of-00", Random: &client.RandomSpec{N: 24, Seed: 1000}, Dim: 1, Ordering: "br"},
		client.Spec{Label: "cost-query", Random: &client.RandomSpec{N: 64, Seed: 2000}, Dim: 2, Ordering: "br", CostOnly: true},
		client.Spec{Label: "traced", Random: &client.RandomSpec{N: 32, Seed: 2001}, Dim: 2, Ordering: "pbr", Trace: true},
		client.Spec{Label: "pipelined", Random: &client.RandomSpec{N: 32, Seed: 2002}, Dim: 2, Ordering: "d4", Pipelined: true, PipelineQ: 1},
	)
	return specs
}
