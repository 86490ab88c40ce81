package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/client"
	"repro/internal/engine"
	"repro/internal/kernel"
	"repro/internal/ordering"
	"repro/internal/store"
)

// micro holds the isolated layer calls of a traced run. Each call is timed
// alone, after the measured window, with the system under test shut down.
type micro struct {
	fusedNsPerPair float64 // kernel.Scratch Cross+Within at the n=512, d=3 block shape
	laneNsPerPair  float64 // kernel.LaneScratch Cross+Within, K=8, n=24 (per pair per job)
	allocsPerOp    float64 // heap allocations of one warm fused Cross+Within
	ckptBytes      float64 // on-disk size of one n=256, d=3 checkpoint
	speedup1Core   float64 // the workload's first job: wall at GOMAXPROCS=1 over wall now
}

const (
	microFusedReps = 21
	microLaneReps  = 501
	microStoreReps = 9
	microBuildReps = 5
)

func (e *env) microcalls() (*micro, error) {
	mc := &micro{}
	mc.fusedNsPerPair, mc.allocsPerOp = e.microFused()
	mc.laneNsPerPair = e.microLane()
	var err error
	if mc.ckptBytes, err = e.microStore(); err != nil {
		return nil, err
	}
	e.microBuild()
	if mc.speedup1Core, err = e.microSpeedup(); err != nil {
		return nil, err
	}
	return mc, nil
}

// blockCols returns columns [lo, lo+w) of a and the matching identity
// columns: one block of the engine's initial placement.
func blockCols(a [][]float64, lo, w int) (cols, ident [][]float64) {
	for c := lo; c < lo+w; c++ {
		cols = append(cols, append([]float64(nil), a[c]...))
		id := make([]float64, len(a[c]))
		id[c] = 1
		ident = append(ident, id)
	}
	return cols, ident
}

func columns(n int, seed int64) [][]float64 {
	a := randomMatrix(n, seed)
	cols := make([][]float64, n)
	for c := range cols {
		cols[c] = a.Col(c)
	}
	return cols
}

func copyCols(dst, src [][]float64) {
	for i := range src {
		copy(dst[i], src[i])
	}
}

// microFused times the fused kernel on one pairing of the n=512, d=3 shape:
// two blocks of 512/16 = 32 columns, Cross then Within, on fresh copies of
// the initial columns every repetition (rotated columns converge and would
// take the skip path). It also counts the allocations of a warm pairing.
func (e *env) microFused() (nsPerPair, allocs float64) {
	const n, w = 512, 32
	a := columns(n, mix(e.o.seed, streamMicro, 0))
	xa0, xu0 := blockCols(a, 0, w)
	ya0, yu0 := blockCols(a, w, w)
	xa, xu := blockCols(a, 0, w)
	ya, yu := blockCols(a, w, w)
	pairs := float64(w*w + w*(w-1)/2)
	sc := &kernel.Scratch{}
	var conv kernel.Conv
	var ts []float64
	for r := 0; r < microFusedReps; r++ {
		copyCols(xa, xa0)
		copyCols(xu, xu0)
		copyCols(ya, ya0)
		copyCols(yu, yu0)
		sp := e.tr.begin("kernel.fused_pairing", 0, -1)
		t0 := time.Now()
		sc.Cross(xa, xu, ya, yu, &conv)
		sc.Within(xa, xu, &conv)
		ts = append(ts, float64(time.Since(t0).Nanoseconds()))
		sp.end()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sc.Cross(xa, xu, ya, yu, &conv)
	sc.Within(xa, xu, &conv)
	runtime.ReadMemStats(&after)
	return median(ts) / pairs, float64(after.Mallocs - before.Mallocs)
}

// microLane times the lane kernel on one pairing of the larger serve-small
// shape: K=8 lanes of n=24, d=2 jobs, so blocks of 24/8 = 3 interleaved
// columns.
func (e *env) microLane() float64 {
	const n, w, lanes = 24, 3, 8
	jobs := make([][][]float64, lanes)
	for k := range jobs {
		jobs[k] = columns(n, mix(e.o.seed, streamMicro, 1+k))
	}
	group := func(lo int) (cols, ident [][]float64) {
		for c := lo; c < lo+w; c++ {
			col, id := make([]float64, n*lanes), make([]float64, n*lanes)
			lane := make([][]float64, lanes)
			for k := range lane {
				lane[k] = jobs[k][c]
				id[c*lanes+k] = 1
			}
			kernel.Interleave(col, lane, lanes)
			cols, ident = append(cols, col), append(ident, id)
		}
		return cols, ident
	}
	xa0, xu0 := group(0)
	ya0, yu0 := group(w)
	xa, xu := group(0)
	ya, yu := group(w)
	active := make([]float64, lanes)
	for k := range active {
		active[k] = -1 // sign bit set: the lane's job is live
	}
	conv := make([]kernel.Conv, lanes)
	sc := kernel.NewLaneScratch(lanes, false)
	pairs := float64((w*w + w*(w-1)/2) * lanes)
	var ts []float64
	for r := 0; r < microLaneReps; r++ {
		copyCols(xa, xa0)
		copyCols(xu, xu0)
		copyCols(ya, ya0)
		copyCols(yu, yu0)
		sp := e.tr.begin("kernel.lane_pairing", 0, -1)
		t0 := time.Now()
		sc.Cross(xa, xu, ya, yu, nil, nil, active, conv)
		sc.Within(xa, xu, nil, active, conv)
		ts = append(ts, float64(time.Since(t0).Nanoseconds()))
		sp.end()
	}
	return median(ts) / pairs
}

// microStore appends submit-sized records (the JSON spec of an n=256
// matrix) and saves n=256, d=3 checkpoints on a scratch store, each call
// fsync'd as the service's are. It returns one checkpoint's size on disk.
func (e *env) microStore() (float64, error) {
	dir := filepath.Join(e.o.work, "run", fmt.Sprintf("store-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return 0, err
	}
	defer st.Close()
	const n, d = 256, 3
	a := randomMatrix(n, mix(e.o.seed, streamMicro, 100))
	spec, err := json.Marshal(client.Spec{Matrix: &client.MatrixSpec{N: n, Data: a.Data}, Dim: d})
	if err != nil {
		return 0, err
	}
	for r := 0; r < microStoreReps; r++ {
		sp := e.tr.begin("store.append", 0, -1)
		err := st.Append(store.Record{Kind: store.KindSubmitted, ID: fmt.Sprintf("job-%d", r), Spec: spec})
		sp.end()
		if err != nil {
			return 0, err
		}
	}
	cols := columns(n, mix(e.o.seed, streamMicro, 101))
	w := n >> (d + 1)
	ck := &engine.Checkpoint{Dim: d, Rows: n, FactorRows: n}
	for b := 0; b < 2<<d; b++ {
		blk := &engine.Block{ID: b}
		blk.A, blk.U = blockCols(cols, b*w, w)
		for c := b * w; c < (b+1)*w; c++ {
			blk.Cols = append(blk.Cols, c)
		}
		ck.Slots = append(ck.Slots, blk)
	}
	before := dirBytes(dir)
	var size float64
	for r := 0; r < microStoreReps; r++ {
		sp := e.tr.begin("store.save_checkpoint", 0, -1)
		err := st.SaveCheckpoint(fmt.Sprintf("job-%d", r), ck)
		sp.end()
		if err != nil {
			return 0, err
		}
		if r == 0 {
			size = float64(dirBytes(dir) - before)
		}
	}
	return size, nil
}

// microBuild times building every paper-grid schedule (d = 2..5, the four
// orderings) without the process-wide cache.
func (e *env) microBuild() {
	for r := 0; r < microBuildReps; r++ {
		sp := e.tr.begin("ordering.build_sweeps", 0, -1)
		for d := 2; d <= 5; d++ {
			for _, fam := range ordering.AllFamilies() {
				ordering.BuildSweep(d, fam)
			}
		}
		sp.end()
	}
}

// microSpeedup solves the workload's first job on a one-worker, cache-less
// in-process service, alternating between GOMAXPROCS=1 and the default,
// and returns the ratio of the median walls (1-core over default).
func (e *env) microSpeedup() (float64, error) {
	c, err := client.NewLocal(client.LocalConfig{Workers: 1, CacheCap: -1})
	if err != nil {
		return 0, err
	}
	defer c.Close()
	j := e.w.job(e.o.seed, 0)
	j.materialize()
	procs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(procs)
	var walls [2][]float64
	start := time.Now()
	for r := 0; r == 0 || (r < 11 && time.Since(start) < time.Second); r++ {
		for k, p := range [2]int{procs, 1} {
			runtime.GOMAXPROCS(p)
			sp := e.tr.begin(fmt.Sprintf("engine.solve_gomaxprocs%d", p), 0, -1)
			h, err := c.Submit(context.Background(), j.spec)
			var res *client.Result
			if err == nil {
				res, err = h.Wait(context.Background())
			}
			sp.end()
			if err != nil {
				return 0, fmt.Errorf("speed-up solve: %w", err)
			}
			walls[k] = append(walls[k], res.WallMs)
		}
	}
	return median(walls[1]) / median(walls[0]), nil
}
