package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/costmodel"
	"repro/internal/engine"
	"repro/internal/kernel"
	"repro/internal/matrix"
	"repro/internal/metrics"
	"repro/internal/ordering"
	"repro/internal/service"
	"repro/internal/tuner"
)

// benchReport is the headline-metric record the bench command emits; one
// BENCH_<date>.json per run accumulates the performance trajectory of the
// repository over time.
type benchReport struct {
	Date       string `json:"date"`
	GoVersion  string `json:"go_version,omitempty"`
	MatrixSize int    `json:"matrix_size"`
	Dim        int    `json:"dim"`
	Sweeps     int    `json:"sweeps"`
	Ordering   string `json:"ordering"`

	EmulatedWallMs  float64 `json:"emulated_wall_ms"`
	MulticoreWallMs float64 `json:"multicore_wall_ms"`
	Speedup         float64 `json:"speedup"`

	// Per-pair kernel rates: wall time divided by the sweep's column-pair
	// count n(n-1)/2 per sweep — the regression guard's machine-size-free
	// compute metric.
	EmulatedNsPerPair  float64 `json:"emulated_ns_per_pair"`
	MulticoreNsPerPair float64 `json:"multicore_ns_per_pair"`
	// SweepAllocsPerOp is the measured allocation count of one fused block
	// pairing with a warm worker scratch — the sweep inner loop. Must be 0.
	SweepAllocsPerOp float64 `json:"sweep_allocs_per_op"`

	AnalyticMakespan float64 `json:"analytic_makespan"`
	BaselineModel    float64 `json:"baseline_model"`
	AnalyticRelErr   float64 `json:"analytic_rel_err"`

	// Ordering auto-tuner on the bench shape: the analytic one-sweep
	// makespan of the unpipelined baseline and of the tuner's winning
	// execution plan, in machine time units (Ts=1000ns, Tw=100ns).
	BaselineMakespanNs float64 `json:"baseline_makespan_ns"`
	TunedMakespanNs    float64 `json:"tuned_makespan_ns"`
	TunedOrdering      string  `json:"tuned_ordering,omitempty"`

	EmulatedMakespan float64 `json:"emulated_makespan"`
	Messages         int     `json:"messages"`
	Elements         int     `json:"elements"`

	ScheduleCacheBuilds int64 `json:"schedule_cache_builds"`
	ScheduleCacheHits   int64 `json:"schedule_cache_hits"`

	BatchJobs        int     `json:"batch_jobs"`
	BatchConcurrency int     `json:"batch_concurrency"`
	BatchMatrixSize  int     `json:"batch_matrix_size"`
	BatchJobsPerSec  float64 `json:"batch_jobs_per_sec"`
	BatchWallP99Ms   float64 `json:"batch_wall_p99_ms"`

	// The batched solve lane. BatchJobsPerSec above is the service's
	// headline throughput with lanes enabled (small jobs gathered
	// LaneWidth at a time into SIMD-lockstep lanes);
	// BatchUnbatchedJobsPerSec is the same batch solved one job per worker
	// on the multicore backend — the pre-lane configuration — measured in
	// the same process, so the pair is same-host by construction.
	LaneWidth                int     `json:"lane_width,omitempty"`
	BatchUnbatchedJobsPerSec float64 `json:"batch_unbatched_jobs_per_sec,omitempty"`
	BatchLaneJobsPerSec      float64 `json:"batch_lane_jobs_per_sec,omitempty"`
	// LaneFillRatio is jobs carried over lane capacity across the lane
	// run's dispatches (1.0 = every lane ran full).
	LaneFillRatio float64 `json:"lane_fill_ratio,omitempty"`
	// LaneNsPerPairPerJob is the lane kernel rate: wall time of a full
	// fixed-sweep lane divided by (jobs × pairs per sweep × sweeps).
	LaneNsPerPairPerJob float64 `json:"lane_ns_per_pair_per_job,omitempty"`
	// LaneAllocsPerOp is the steady-state allocation count of one batched
	// lane pairing round on a warm LaneScratch. Must be 0.
	LaneAllocsPerOp float64 `json:"lane_allocs_per_op"`
}

// cmdBench runs the headline benchmark suite: the same fixed-sweep
// eigensolve on the emulated and the multicore backends (wall-clock), the
// analytic backend against the closed-form cost model, and the sweep-
// schedule cache counters. With -json the metrics land in BENCH_<date>.json
// so the perf trajectory accumulates across runs.
func cmdBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	m := fs.Int("m", 512, "matrix size")
	d := fs.Int("d", 3, "hypercube dimension")
	sweeps := fs.Int("sweeps", 1, "fixed sweep count")
	ord := fs.String("o", "pbr", "ordering (br, pbr, d4, minalpha)")
	seed := fs.Int64("seed", 2026, "random matrix seed")
	batchN := fs.Int("batch", 16, "batch-throughput job count")
	batchC := fs.Int("batchc", 4, "batch-throughput concurrency")
	batchM := fs.Int("batchm", 96, "batch-throughput matrix size")
	laneW := fs.Int("lane-width", 8, "batched-lane width for the lane throughput run")
	asJSON := fs.Bool("json", false, "write the metrics to BENCH_<date>.json")
	out := fs.String("out", "", "JSON output path (default BENCH_<date>.json)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fam, err := ordering.FamilyByName(*ord)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(*seed))
	a := matrix.RandomSymmetric(*m, rng)
	// solve runs the fixed-sweep bench solve of a on one backend.
	solve := func(be engine.ExecBackend) (*engine.Stats, error) {
		prob, err := engine.NewProblem(a, *d, nil)
		if err != nil {
			return nil, err
		}
		prob.Family = fam
		prob.FixedSweeps = *sweeps
		_, stats, err := prob.Run(be)
		return stats, err
	}

	rep := benchReport{
		Date:       time.Now().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		MatrixSize: *m,
		Dim:        *d,
		Sweeps:     *sweeps,
		Ordering:   fam.Name(),
	}

	fmt.Printf("bench: m=%d, d=%d (%d nodes), %d fixed sweep(s), %s ordering\n",
		*m, *d, 1<<uint(*d), *sweeps, fam.Name())

	// pairsPerRun is the rotation-pair count the wall-clock figures cover:
	// every column pair once per sweep.
	pairsPerRun := float64(*sweeps) * float64(*m) * float64(*m-1) / 2

	// Emulated backend: real serialized payloads + virtual clock, on the
	// reference kernels.
	emuStats, err := solve(&engine.Emulated{Ts: 1000, Tw: 100})
	if err != nil {
		return fmt.Errorf("emulated solve: %w", err)
	}
	rep.EmulatedWallMs = float64(emuStats.WallTime.Microseconds()) / 1000
	rep.EmulatedMakespan = emuStats.Makespan
	rep.Messages = emuStats.Messages
	rep.Elements = emuStats.Elements
	rep.EmulatedNsPerPair = rep.EmulatedWallMs * 1e6 / pairsPerRun
	fmt.Printf("  emulated:  wall %8.1f ms   makespan %.0f units   %d messages   %.0f ns/pair\n",
		rep.EmulatedWallMs, emuStats.Makespan, emuStats.Messages, rep.EmulatedNsPerPair)

	// Multicore backend: shared memory, no clock, fused kernels — hardware
	// speed.
	mcStats, err := solve(&engine.Multicore{})
	if err != nil {
		return fmt.Errorf("multicore solve: %w", err)
	}
	rep.MulticoreWallMs = float64(mcStats.WallTime.Microseconds()) / 1000
	if rep.MulticoreWallMs > 0 {
		rep.Speedup = rep.EmulatedWallMs / rep.MulticoreWallMs
	}
	rep.MulticoreNsPerPair = rep.MulticoreWallMs * 1e6 / pairsPerRun
	rep.SweepAllocsPerOp = sweepInnerLoopAllocs(a, *d)
	fmt.Printf("  multicore: wall %8.1f ms   (%.2fx vs emulated)   %.0f ns/pair   %.0f allocs/op\n",
		rep.MulticoreWallMs, rep.Speedup, rep.MulticoreNsPerPair, rep.SweepAllocsPerOp)

	// Analytic backend vs the closed-form model.
	anStats, err := solve(&engine.Analytic{Ts: 1000, Tw: 100})
	if err != nil {
		return fmt.Errorf("analytic solve: %w", err)
	}
	rep.AnalyticMakespan = anStats.Makespan
	rep.BaselineModel = float64(*sweeps) * costmodel.BaselineSweepCost(*d, costmodel.Params{M: float64(*m), Ts: 1000, Tw: 100})
	if rep.BaselineModel > 0 {
		rep.AnalyticRelErr = (anStats.Makespan - rep.BaselineModel) / rep.BaselineModel
	}
	fmt.Printf("  analytic:  makespan %.0f units   closed-form %.0f   rel err %+.2e\n",
		rep.AnalyticMakespan, rep.BaselineModel, rep.AnalyticRelErr)

	// Ordering auto-tuner on the bench shape: how much one tuned sweep
	// saves over the unpipelined baseline, analytically.
	tuneRep, err := tuner.Search(tuner.Shape{N: *m, Dim: *d}, tuner.Params{Ts: 1000, Tw: 100}, tuner.Options{Random: 2})
	if err != nil {
		return fmt.Errorf("tuner search: %w", err)
	}
	rep.BaselineMakespanNs = tuneRep.BaselineMakespan
	rep.TunedMakespanNs = tuneRep.Winner.TunedMakespan
	rep.TunedOrdering = tuneRep.Winner.FamilyName
	fmt.Printf("  tuned:     makespan %.0f units vs baseline %.0f (%s) — %.1f%% saved\n",
		rep.TunedMakespanNs, rep.BaselineMakespanNs, rep.TunedOrdering,
		100*(1-rep.TunedMakespanNs/rep.BaselineMakespanNs))

	// Batch-solve service throughput: batchN distinct convergent solves at
	// fixed concurrency through the worker pool (cache disabled so every
	// job is a real solve). Measured twice on the same specs in the same
	// process: unbatched (one multicore solve per worker — the pre-lane
	// configuration) and lane-routed (same-shape jobs gathered laneW at a
	// time into SIMD-lockstep lanes). The lane-routed rate is the
	// service's headline jobs/sec.
	mkSpecs := func(backend string) []service.JobSpec {
		specs := make([]service.JobSpec, *batchN)
		for i := range specs {
			srng := rand.New(rand.NewSource(int64(3000 + i)))
			specs[i] = service.JobSpec{
				Matrix:   matrix.RandomSymmetric(*batchM, srng),
				Dim:      2,
				Ordering: fam.Name(),
				Backend:  backend,
			}
		}
		return specs
	}
	runBatch := func(cfg service.Config, backend string) (float64, metrics.Snapshot, error) {
		svc := service.New(cfg)
		// Spec construction (random matrix generation) is benchmark setup,
		// not service throughput — build outside the timed window.
		specs := mkSpecs(backend)
		start := time.Now()
		jobs, err := svc.SubmitAll(context.Background(), specs)
		if err == nil {
			err = service.WaitAll(context.Background(), jobs)
		}
		if err == nil {
			// WaitAll swallows per-job failures by design; a headline metric
			// computed over failed jobs would corrupt the BENCH trajectory.
			for i, j := range jobs {
				if _, jerr := j.Result(); jerr != nil {
					err = fmt.Errorf("job %d: %w", i, jerr)
					break
				}
			}
		}
		dur := time.Since(start)
		snap := svc.Metrics()
		svc.Close()
		if err != nil {
			return 0, snap, err
		}
		return float64(*batchN) / dur.Seconds(), snap, nil
	}

	unbatched, _, err := runBatch(service.Config{Workers: *batchC, CacheCap: -1}, service.BackendMulticore)
	if err != nil {
		return fmt.Errorf("batch throughput (unbatched): %w", err)
	}
	rep.BatchJobs = *batchN
	rep.BatchConcurrency = *batchC
	rep.BatchMatrixSize = *batchM
	rep.BatchUnbatchedJobsPerSec = unbatched
	fmt.Printf("  batch:     %d jobs (n=%d) at concurrency %d unbatched — %.1f jobs/sec\n",
		*batchN, *batchM, *batchC, unbatched)

	laneRate, laneSnap, err := runBatch(service.Config{
		Workers:  *batchC,
		CacheCap: -1,
		// Route the whole batch through the lane: the threshold sits above
		// the batch matrix size so auto-selection picks the lane, and the
		// window is generous enough that one SubmitAll fills every lane.
		MulticoreThreshold: *batchM * 2,
		LaneWidth:          *laneW,
		LaneWindow:         50 * time.Millisecond,
	}, service.BackendAuto)
	if err != nil {
		return fmt.Errorf("batch throughput (lane): %w", err)
	}
	rep.LaneWidth = *laneW
	rep.BatchJobsPerSec = laneRate
	rep.BatchLaneJobsPerSec = laneRate
	rep.BatchWallP99Ms = laneSnap.WallP99Ms
	rep.LaneFillRatio = laneSnap.LaneFillRatio
	fmt.Printf("  lane:      %d jobs (n=%d) at lane width %d — %.1f jobs/sec (%.2fx unbatched, fill %.2f, p99 %.1f ms)\n",
		*batchN, *batchM, *laneW, laneRate, laneRate/unbatched, laneSnap.LaneFillRatio, laneSnap.WallP99Ms)

	rep.LaneNsPerPairPerJob = laneKernelRate(*batchM, *laneW, fam)
	rep.LaneAllocsPerOp = laneInnerLoopAllocs(*batchM, *laneW)
	fmt.Printf("  lane kernels: %.0f ns/pair/job   %.0f allocs/op\n",
		rep.LaneNsPerPairPerJob, rep.LaneAllocsPerOp)

	cache := ordering.SweepCacheStats()
	rep.ScheduleCacheBuilds = cache.Builds
	rep.ScheduleCacheHits = cache.Hits
	fmt.Printf("  schedule cache: %d build(s), %d hit(s)\n", cache.Builds, cache.Hits)

	if !*asJSON {
		return nil
	}
	path := *out
	if path == "" {
		path = fmt.Sprintf("BENCH_%s.json", rep.Date)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("  wrote %s\n", path)
	return nil
}

// sweepInnerLoopAllocs measures the allocation count of the sweep inner
// loop — one fused block pairing on a warm worker scratch, exactly what
// every multicore node runs per step — as the heap-allocation delta
// (runtime.MemStats.Mallocs) averaged over a few runs, pinned to this
// goroutine's OS thread so the counter reflects only the measured loop.
// The regression guard fails the build on any nonzero value.
func sweepInnerLoopAllocs(a *matrix.Dense, d int) float64 {
	blocks, err := engine.BuildBlocks(a, d)
	if err != nil || len(blocks) < 2 {
		return -1
	}
	sc := &engine.Scratch{}
	var conv engine.ConvTracker
	engine.PairCrossFused(blocks[0], blocks[1], sc, &conv) // warm the scratch
	const runs = 3
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		engine.PairCrossFused(blocks[0], blocks[1], sc, &conv)
		engine.PairWithinFused(blocks[0], sc, &conv)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs
}

// laneKernelRate measures the batched lane's per-pair rate: lanes jobs of
// size n advanced through a fixed two-sweep lane run, wall time divided by
// (jobs × sweeps × pairs per sweep) — the lane counterpart of the solo
// ns/pair figures.
func laneKernelRate(n, lanes int, fam ordering.Family) float64 {
	const sweeps = 2
	mats := make([]*matrix.Dense, lanes)
	for k := range mats {
		mats[k] = matrix.RandomSymmetric(n, rand.New(rand.NewSource(int64(4000+k))))
	}
	// run times one lane solve of the matrices: block building, the lane
	// run and the eigenpair extraction.
	run := func() (time.Duration, error) {
		start := time.Now()
		jobs := make([]*engine.LaneJob, lanes)
		for k, a := range mats {
			prob, err := engine.NewProblem(a, 2, nil)
			if err != nil {
				return 0, err
			}
			jobs[k] = &engine.LaneJob{Blocks: prob.Blocks, Rows: prob.Rows, FixedSweeps: sweeps, TraceGram: prob.TraceGram}
		}
		outs, err := (&engine.BatchedBackend{}).RunLane(2, fam, jobs)
		for _, out := range outs {
			out.Eigen()
		}
		return time.Since(start), err
	}
	// One unmeasured run first: the timed figure should reflect the warm
	// steady state the service sees, not first-touch page faults.
	if _, err := run(); err != nil {
		return -1
	}
	wall, err := run()
	if err != nil {
		return -1
	}
	wallNs := float64(wall.Nanoseconds())
	pairs := float64(lanes) * sweeps * float64(n) * float64(n-1) / 2
	return wallNs / pairs
}

// laneInnerLoopAllocs measures the steady-state allocation count of one
// batched lane pairing round — a Within and a Cross on a warm LaneScratch,
// exactly the lane sweep loop's unit of work. The regression guard fails
// the build on any nonzero value.
func laneInnerLoopAllocs(n, lanes int) float64 {
	const w = 4 // columns per block group
	rng := rand.New(rand.NewSource(7))
	group := func() [][]float64 {
		g := make([][]float64, w)
		for i := range g {
			col := make([]float64, n*lanes)
			for r := range col {
				col[r] = rng.Float64()*2 - 1
			}
			g[i] = col
		}
		return g
	}
	xa, xu, ya, yu := group(), group(), group(), group()
	sc := kernel.NewLaneScratch(lanes, false)
	active := make([]float64, lanes)
	for k := range active {
		active[k] = -1
	}
	conv := make([]kernel.Conv, lanes)
	sc.Within(xa, xu, nil, active, conv) // warm the scratch
	sc.Cross(xa, xu, ya, yu, nil, nil, active, conv)
	const runs = 3
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		sc.Within(xa, xu, nil, active, conv)
		sc.Cross(xa, xu, ya, yu, nil, nil, active, conv)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs
}
